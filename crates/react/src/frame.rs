//! The per-connection line-framing state machine.
//!
//! Bytes arrive in arbitrary chunks; the framer accumulates them and
//! yields complete `\n`-terminated lines (with the terminator and any
//! trailing `\r` stripped, matching `BufRead::lines`). A line that grows
//! past the configured cap without a terminator is a framing error —
//! the caller closes the connection instead of buffering without bound.

/// Why framing failed; both are fatal for the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// A single line exceeded the cap (bytes buffered so far).
    Oversized(usize),
    /// The line was not valid UTF-8.
    Utf8,
}

/// Accumulates received bytes and yields complete lines.
#[derive(Debug)]
pub struct LineFramer {
    buf: Vec<u8>,
    /// Bytes before `start` belong to already-yielded lines.
    start: usize,
    /// Absolute index up to which `buf` has been scanned for `\n`, so
    /// repeated [`next_line`](LineFramer::next_line) calls stay O(bytes).
    scanned: usize,
    max_line: usize,
}

impl LineFramer {
    /// A framer that rejects lines longer than `max_line` bytes.
    pub fn new(max_line: usize) -> LineFramer {
        LineFramer { buf: Vec::new(), start: 0, scanned: 0, max_line }
    }

    /// Appends received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered toward the next (incomplete) line.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Yields the next complete line, `Ok(None)` when more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// [`FrameError::Oversized`] once the unterminated tail passes the
    /// cap, [`FrameError::Utf8`] for an invalid line.
    pub fn next_line(&mut self) -> Result<Option<String>, FrameError> {
        match self.buf[self.scanned..].iter().position(|b| *b == b'\n') {
            Some(offset) => {
                let newline = self.scanned + offset;
                if newline - self.start > self.max_line {
                    return Err(FrameError::Oversized(newline - self.start));
                }
                let mut end = newline;
                if end > self.start && self.buf[end - 1] == b'\r' {
                    end -= 1;
                }
                let line = std::str::from_utf8(&self.buf[self.start..end])
                    .map_err(|_| FrameError::Utf8)?
                    .to_string();
                self.start = newline + 1;
                self.scanned = self.start;
                self.compact();
                Ok(Some(line))
            }
            None => {
                self.scanned = self.buf.len();
                if self.buffered() > self.max_line {
                    Err(FrameError::Oversized(self.buffered()))
                } else {
                    Ok(None)
                }
            }
        }
    }

    /// Takes the unterminated tail as a final line (EOF semantics,
    /// matching `BufRead::lines` yielding a last segment without `\n`).
    ///
    /// # Errors
    ///
    /// [`FrameError::Utf8`] for an invalid tail.
    pub fn take_partial(&mut self) -> Result<Option<String>, FrameError> {
        if self.buffered() == 0 {
            return Ok(None);
        }
        let mut end = self.buf.len();
        if self.buf[end - 1] == b'\r' {
            end -= 1;
        }
        let line = std::str::from_utf8(&self.buf[self.start..end])
            .map_err(|_| FrameError::Utf8)?
            .to_string();
        self.buf.clear();
        self.start = 0;
        self.scanned = 0;
        Ok(Some(line))
    }

    /// Drops the consumed prefix once it dominates the buffer, keeping
    /// the footprint proportional to unconsumed bytes.
    fn compact(&mut self) {
        if self.start >= 4096 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.scanned -= self.start;
            self.start = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_lines_across_arbitrary_chunks() {
        let mut f = LineFramer::new(1024);
        f.push(b"{\"cmd\":");
        assert_eq!(f.next_line().unwrap(), None);
        f.push(b"\"ping\"}\n{\"cmd\":\"metrics\"}\r\npartial");
        assert_eq!(f.next_line().unwrap().as_deref(), Some("{\"cmd\":\"ping\"}"));
        assert_eq!(f.next_line().unwrap().as_deref(), Some("{\"cmd\":\"metrics\"}"));
        assert_eq!(f.next_line().unwrap(), None);
        assert_eq!(f.buffered(), 7);
        assert_eq!(f.take_partial().unwrap().as_deref(), Some("partial"));
        assert_eq!(f.take_partial().unwrap(), None);
    }

    #[test]
    fn empty_lines_are_yielded_for_the_caller_to_skip() {
        let mut f = LineFramer::new(64);
        f.push(b"\n\r\nx\n");
        assert_eq!(f.next_line().unwrap().as_deref(), Some(""));
        assert_eq!(f.next_line().unwrap().as_deref(), Some(""));
        assert_eq!(f.next_line().unwrap().as_deref(), Some("x"));
    }

    #[test]
    fn oversized_lines_are_fatal_terminated_or_not() {
        let mut f = LineFramer::new(8);
        f.push(b"123456789"); // 9 unterminated bytes > 8
        assert_eq!(f.next_line(), Err(FrameError::Oversized(9)));

        let mut f = LineFramer::new(8);
        f.push(b"123456789\n");
        assert_eq!(f.next_line(), Err(FrameError::Oversized(9)));

        let mut f = LineFramer::new(8);
        f.push(b"12345678\nok\n");
        assert_eq!(f.next_line().unwrap().as_deref(), Some("12345678"));
        assert_eq!(f.next_line().unwrap().as_deref(), Some("ok"));
    }

    #[test]
    fn invalid_utf8_is_fatal() {
        let mut f = LineFramer::new(64);
        f.push(&[0xff, 0xfe, b'\n']);
        assert_eq!(f.next_line(), Err(FrameError::Utf8));
        let mut f = LineFramer::new(64);
        f.push(&[0xff]);
        assert_eq!(f.take_partial(), Err(FrameError::Utf8));
    }

    #[test]
    fn compaction_keeps_the_footprint_bounded() {
        let mut f = LineFramer::new(128);
        let line = [b'a'; 64];
        for _ in 0..1024 {
            f.push(&line);
            f.push(b"\n");
            assert!(f.next_line().unwrap().is_some());
        }
        assert!(f.buf.len() < 16 * 1024, "buffer grew to {} bytes", f.buf.len());
    }
}
