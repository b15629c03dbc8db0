//! ASCII rendering of execution timelines (the paper's Fig. 1).

use crate::ExecSlice;

/// Renders execution slices as one ASCII Gantt row per task, covering
/// `[0, until)` with `width` character cells. A cell is marked `█` when
/// the task occupies the CPU for most of the cell, `▌` when it occupies
/// part of it, and `.` when idle. Release ticks (every `period` cycles)
/// are marked with `|` on a separate ruler row per task.
///
/// `names` and `periods` are indexed by task id as used in the slices.
pub fn render_timeline(
    slices: &[ExecSlice],
    names: &[&str],
    periods: &[u64],
    until: u64,
    width: usize,
) -> String {
    assert_eq!(names.len(), periods.len(), "one period per task name");
    let width = width.max(10);
    let until = until.max(1);
    let cell = |x: u64| -> usize { ((x as u128 * width as u128) / until as u128) as usize };
    let name_pad = names.iter().map(|n| n.len()).max().unwrap_or(0).max(4);
    let mut out = String::new();
    for (task, (name, period)) in names.iter().zip(periods).enumerate() {
        // Occupancy per cell in 1/2 units: 0 idle, 1 partial, 2 full-ish.
        let mut occupancy = vec![0u8; width];
        for s in slices.iter().filter(|s| s.task == task && s.start < until) {
            let end = s.end.min(until);
            let (c0, c1) = (cell(s.start), cell(end.saturating_sub(1)).min(width - 1));
            for slot in &mut occupancy[c0..=c1] {
                *slot = (*slot).max(1);
            }
            // A cell fully covered by the slice is "full".
            for (c, slot) in occupancy.iter_mut().enumerate().take(c1 + 1).skip(c0) {
                let cell_start = (c as u128 * until as u128 / width as u128) as u64;
                let cell_end = ((c + 1) as u128 * until as u128 / width as u128) as u64;
                if s.start <= cell_start && end >= cell_end {
                    *slot = 2;
                }
            }
        }
        out.push_str(&format!("{name:>name_pad$} "));
        for o in &occupancy {
            out.push(match o {
                0 => '.',
                1 => '▌',
                _ => '█',
            });
        }
        out.push('\n');
        // Release ruler.
        let mut ruler = vec![' '; width];
        let mut t = 0u64;
        while t < until {
            ruler[cell(t).min(width - 1)] = '|';
            let Some(next) = t.checked_add(*period) else { break };
            t = next;
        }
        out.push_str(&format!("{:>name_pad$} ", ""));
        out.extend(ruler);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_rows_per_task() {
        let slices = vec![
            ExecSlice { task: 0, start: 0, end: 50 },
            ExecSlice { task: 1, start: 50, end: 100 },
        ];
        let s = render_timeline(&slices, &["hi", "lo"], &[50, 100], 100, 20);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4, "task row + ruler row per task");
        assert!(lines[0].trim_start().starts_with("hi"));
        assert!(lines[2].trim_start().starts_with("lo"));
        // hi occupies the first half, lo the second.
        assert!(lines[0].contains('█'));
        assert!(lines[2].contains('█'));
    }

    #[test]
    fn idle_cells_are_dots() {
        let slices = vec![ExecSlice { task: 0, start: 0, end: 10 }];
        let s = render_timeline(&slices, &["t"], &[100], 100, 20);
        let row = s.lines().next().unwrap();
        assert!(row.contains('.'), "{row}");
    }

    #[test]
    fn release_ticks_follow_period() {
        let s = render_timeline(&[], &["t"], &[25], 100, 20);
        let ruler = s.lines().nth(1).unwrap();
        assert_eq!(ruler.matches('|').count(), 4, "releases at 0,25,50,75");
    }

    #[test]
    fn release_ticks_stop_at_u64_max() {
        let s = render_timeline(&[], &["t"], &[(1 << 63) + 1], u64::MAX, 20);
        assert_eq!(s.lines().nth(1).unwrap().matches('|').count(), 2);
    }

    #[test]
    fn clamps_past_horizon() {
        let slices = vec![ExecSlice { task: 0, start: 90, end: 500 }];
        let s = render_timeline(&slices, &["t"], &[1000], 100, 10);
        assert!(
            s.lines().next().unwrap().ends_with('▌') || s.lines().next().unwrap().ends_with('█')
        );
    }
}
