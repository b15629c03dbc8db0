//! The system-spec file format for `trisc wcrt` / `trisc sim`.
//!
//! A spec describes a fixed-priority task system in plain text:
//!
//! ```text
//! # three tasks sharing the paper's L1
//! cache 512 4 16
//! cmiss 20
//! ccs   376
//! task mr   mr.s   100000 2
//! task ed   ed.s   800000 3
//! task ofdm ofdm.s 4000000 4
//! ```
//!
//! Task source paths are resolved relative to the spec file's directory.

use std::path::{Path, PathBuf};

use crate::options::{CacheOptions, CliError};

/// One `task` line of the spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecTask {
    /// Task name.
    pub name: String,
    /// Path to the assembly source (resolved against the spec dir).
    pub source: PathBuf,
    /// Period (= deadline) in cycles.
    pub period: u64,
    /// Fixed priority (smaller = higher).
    pub priority: u32,
}

/// A parsed system spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemSpec {
    /// Cache and miss-penalty configuration.
    pub cache: CacheOptions,
    /// Context-switch cost in cycles.
    pub ctx_switch: u64,
    /// The tasks, in file order.
    pub tasks: Vec<SpecTask>,
}

impl SystemSpec {
    /// Parses spec text; `base_dir` anchors relative source paths.
    ///
    /// This is where Eq. 7's inputs are checked: every period is at least
    /// 1 and the priorities are pairwise distinct.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Spec`] with the offending line for malformed
    /// input, a zero period or a repeated priority.
    pub fn parse(text: &str, base_dir: &Path) -> Result<SystemSpec, CliError> {
        let mut spec =
            SystemSpec { cache: CacheOptions::default(), ctx_switch: 0, tasks: Vec::new() };
        for (lineno, raw) in text.lines().enumerate() {
            let line = lineno + 1;
            let content = raw.split('#').next().unwrap_or("").trim();
            if content.is_empty() {
                continue;
            }
            let fields: Vec<&str> = content.split_whitespace().collect();
            let bad = |msg: &str| CliError::Spec(format!("line {line}: {msg}"));
            let parse_u64 = |s: &str, what: &str| -> Result<u64, CliError> {
                s.parse().map_err(|_| bad(&format!("bad {what} `{s}`")))
            };
            let parse_u32 = |s: &str, what: &str| -> Result<u32, CliError> {
                u32::try_from(parse_u64(s, what)?)
                    .map_err(|_| bad(&format!("{what} `{s}` exceeds {}", u32::MAX)))
            };
            match fields[0] {
                "cache" => {
                    let [_, sets, ways, line_bytes] = fields.as_slice() else {
                        return Err(bad("expected `cache SETS WAYS LINE`"));
                    };
                    spec.cache.sets = parse_u32(sets, "sets")?;
                    spec.cache.ways = parse_u32(ways, "ways")?;
                    spec.cache.line = parse_u32(line_bytes, "line size")?;
                }
                "cmiss" => {
                    let [_, v] = fields.as_slice() else {
                        return Err(bad("expected `cmiss CYCLES`"));
                    };
                    spec.cache.cmiss = parse_u64(v, "cmiss")?;
                }
                "ccs" => {
                    let [_, v] = fields.as_slice() else {
                        return Err(bad("expected `ccs CYCLES`"));
                    };
                    spec.ctx_switch = parse_u64(v, "ccs")?;
                }
                "task" => {
                    let [_, name, source, period, priority] = fields.as_slice() else {
                        return Err(bad("expected `task NAME FILE PERIOD PRIORITY`"));
                    };
                    let period = parse_u64(period, "period")?;
                    if period == 0 {
                        return Err(bad("period must be at least 1 cycle"));
                    }
                    let priority = parse_u32(priority, "priority")?;
                    if let Some(other) = spec.tasks.iter().find(|t| t.priority == priority) {
                        return Err(bad(&format!(
                            "priority {priority} is already task `{}`'s; fixed-priority \
                             analysis needs distinct priorities",
                            other.name
                        )));
                    }
                    spec.tasks.push(SpecTask {
                        name: (*name).to_string(),
                        source: base_dir.join(source),
                        period,
                        priority,
                    });
                }
                other => return Err(bad(&format!("unknown directive `{other}`"))),
            }
        }
        if spec.tasks.is_empty() {
            return Err(CliError::Spec(
                "spec declares no tasks; at least one `task NAME FILE PERIOD PRIORITY` line is required"
                    .into(),
            ));
        }
        Ok(spec)
    }

    /// Loads a spec from a file.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Io`] or [`CliError::Spec`].
    pub fn load(path: &Path) -> Result<SystemSpec, CliError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Io(format!("{}: {e}", path.display())))?;
        let base = path.parent().unwrap_or_else(|| Path::new("."));
        SystemSpec::parse(&text, base)
    }

    /// Reads every task's source file, in spec order: how the one-shot
    /// CLI resolves a spec's sources before running it.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Io`] naming the first unreadable file.
    pub fn read_sources(&self) -> Result<Vec<String>, CliError> {
        self.tasks
            .iter()
            .map(|t| {
                std::fs::read_to_string(&t.source)
                    .map_err(|e| CliError::Io(format!("{}: {e}", t.source.display())))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = "\
# demo
cache 64 2 16
cmiss 40
ccs 100
task a a.s 10000 1
task b b.s 100000 2
";

    #[test]
    fn parses_directives_and_tasks() {
        let s = SystemSpec::parse(SPEC, Path::new("/tmp/x")).unwrap();
        assert_eq!(s.cache.sets, 64);
        assert_eq!(s.cache.cmiss, 40);
        assert_eq!(s.ctx_switch, 100);
        assert_eq!(s.tasks.len(), 2);
        assert_eq!(s.tasks[0].name, "a");
        assert_eq!(s.tasks[0].source, Path::new("/tmp/x/a.s"));
        assert_eq!(s.tasks[1].period, 100_000);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let s = SystemSpec::parse("# only\n\ntask a a.s 1 1 # trailing\n", Path::new(".")).unwrap();
        assert_eq!(s.tasks.len(), 1);
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "cache 64 2\ntask a a.s 1 1\n",
            "cmiss\ntask a a.s 1 1\n",
            "task a a.s 1\n",
            "task a a.s one 1\n",
            "frob\ntask a a.s 1 1\n",
            "cmiss 20\n",
        ] {
            let err = SystemSpec::parse(bad, Path::new(".")).unwrap_err();
            assert!(matches!(err, CliError::Spec(_)), "{bad}");
        }
    }

    #[test]
    fn numbers_past_u32_are_rejected_not_truncated() {
        // 4294967360 = 2^32 + 64: an `as u32` cast would read it as 64 sets.
        for (text, what) in [
            ("cache 4294967360 2 16\ntask a a.s 1 1\n", "sets `4294967360` exceeds 4294967295"),
            ("cache 64 4294967298 16\ntask a a.s 1 1\n", "ways `4294967298` exceeds"),
            ("cache 64 2 4294967312\ntask a a.s 1 1\n", "line size `4294967312` exceeds"),
            ("task a a.s 1 4294967297\n", "priority `4294967297` exceeds"),
        ] {
            let err = SystemSpec::parse(text, Path::new(".")).unwrap_err();
            let CliError::Spec(msg) = &err else {
                panic!("expected CliError::Spec for {text:?}, got {err:?}");
            };
            assert!(msg.contains(what) && msg.starts_with("line "), "{msg}");
        }
        // u32::MAX itself parses; the geometry check rejects it later.
        let s =
            SystemSpec::parse("cache 64 4294967295 16\ntask a a.s 1 1\n", Path::new(".")).unwrap();
        assert_eq!(s.cache.ways, u32::MAX);
    }

    #[test]
    fn geometries_past_the_analysable_range_are_typed_errors() {
        for (cache, what) in [
            ("cache 64 256 16", "number of ways must be at most 255, got 256"),
            ("cache 1073741824 1 16", "number of cache sets must be at most 65536"),
            ("cache 131072 1 16", "got 131072"),
        ] {
            let s =
                SystemSpec::parse(&format!("{cache}\ntask a a.s 1 1\n"), Path::new(".")).unwrap();
            let store = crate::ArtifactStore::default();
            let err = store.spec_tasks(&s, &["start: halt\n".to_string()]).unwrap_err();
            let CliError::Options(msg) = &err else {
                panic!("expected CliError::Options for {cache}, got {err:?}");
            };
            assert!(msg.contains(what), "{cache}: {msg}");
        }
    }

    #[test]
    fn zero_periods_and_repeated_priorities_are_rejected() {
        for (text, what) in [
            ("task a a.s 0 1\n", "line 1: period must be at least 1 cycle"),
            (
                "cache 64 2 16\ntask a a.s 1000 1\ntask b b.s 2000 1\n",
                "line 3: priority 1 is already task `a`'s",
            ),
        ] {
            let err = SystemSpec::parse(text, Path::new(".")).unwrap_err();
            let CliError::Spec(msg) = &err else {
                panic!("expected CliError::Spec for {text:?}, got {err:?}");
            };
            assert!(msg.contains(what), "{msg}");
        }
    }

    #[test]
    fn empty_task_set_is_rejected() {
        // A task system with zero tasks has no meaningful WCRT question;
        // reject it at parse time with a message naming the fix.
        for text in ["", "# comments only\n", "cache 64 2 16\ncmiss 20\nccs 100\n"] {
            let err = SystemSpec::parse(text, Path::new(".")).unwrap_err();
            let CliError::Spec(msg) = &err else {
                panic!("expected CliError::Spec for {text:?}, got {err:?}");
            };
            assert!(msg.contains("no tasks"), "{msg}");
            assert!(msg.contains("task NAME FILE PERIOD PRIORITY"), "{msg}");
        }
    }

    #[test]
    fn end_to_end_with_real_files() {
        let dir = std::env::temp_dir().join(format!("trisc-spec-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("a.s"),
            ".data 0x100000\nbuf: .word 1,2,3\n.text 0x1000\nstart: li r1, buf\nld r2, 0(r1)\nld r2, 0(r1)\nhalt\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("b.s"),
            ".data 0x100400\nbuf: .word 7\n.text 0x2000\nstart: li r1, buf\nld r2, 0(r1)\nhalt\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("sys.spec"),
            "cache 64 2 16\ncmiss 20\nccs 50\ntask hi a.s 5000 1\ntask lo b.s 50000 2\n",
        )
        .unwrap();
        let spec = SystemSpec::load(&dir.join("sys.spec")).unwrap();
        let sources = spec.read_sources().unwrap();
        let store = crate::ArtifactStore::default();
        let wcrt = crate::run_wcrt(&store, &spec, &sources, false).unwrap();
        assert!(wcrt.contains("App. 4"), "{wcrt}");
        assert!(wcrt.contains("hi"));
        let sim = crate::run_sim(&store, &spec, &sources, Some(60_000)).unwrap();
        assert!(sim.contains("max response"));
        std::fs::remove_dir_all(&dir).ok();
        let err = spec.read_sources().unwrap_err();
        assert!(matches!(&err, CliError::Io(msg) if msg.contains("a.s")), "{err}");
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = SystemSpec::load(Path::new("/nonexistent/x.spec")).unwrap_err();
        assert!(matches!(err, CliError::Io(_)));
    }
}
