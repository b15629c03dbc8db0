//! The resolved sweep plan: a [`Grid`] crossed with a base
//! [`SystemSpec`], validated eagerly, with a fixed mixed-radix point
//! enumeration.

use crpd::{CrpdApproach, TaskParams};
use rtcache::CacheGeometry;
use rtcli::{CliError, SystemSpec};
use rtwcet::TimingModel;

use crate::Grid;

/// Hard cap on the cross-product size: a runaway grid declaration fails
/// fast instead of enumerating forever.
pub const MAX_POINTS: usize = 1_000_000;

/// One fully-resolved sweep point: every axis pinned to a value.
#[derive(Debug, Clone, PartialEq)]
pub struct PointConfig {
    /// The point's index in the plan's enumeration order.
    pub index: usize,
    /// The CRPD approach bounding preemption costs at this point.
    pub approach: CrpdApproach,
    /// The cache geometry (validated at plan build time).
    pub geometry: CacheGeometry,
    /// Cache miss penalty (`Cmiss`) in cycles.
    pub cmiss: u64,
    /// Context-switch cost (`Ccs`) in cycles.
    pub ccs: u64,
    /// Period scaling factor applied to every task.
    pub period_scale: f64,
    /// Priority rotation (already reduced mod the task count).
    pub priority_rot: u32,
}

impl PointConfig {
    /// The timing model of this point: the base model with the point's
    /// miss penalty. Part of the analysis dedup key together with
    /// [`PointConfig::geometry`].
    pub fn model(&self) -> TimingModel {
        TimingModel::with_miss_penalty(self.cmiss)
    }

    /// Compact one-line rendering of the swept axes, used in point rows
    /// and front headers.
    pub fn describe(&self) -> String {
        format!(
            "{} {}x{}x{} cmiss={} ccs={} pscale={} prot={}",
            self.approach,
            self.geometry.sets(),
            self.geometry.ways(),
            self.geometry.line_bytes(),
            self.cmiss,
            self.ccs,
            self.period_scale,
            self.priority_rot
        )
    }
}

/// A validated sweep: the base spec's tasks plus the resolved axis value
/// lists. Points are enumerated in mixed-radix order — approach slowest,
/// then sets, ways, line, cmiss, ccs, period-scale, and priority-rot
/// fastest — so a point's index alone identifies its configuration.
#[derive(Debug, Clone)]
pub struct Plan {
    approach: Vec<CrpdApproach>,
    sets: Vec<u32>,
    ways: Vec<u32>,
    line: Vec<u32>,
    cmiss: Vec<u64>,
    ccs: Vec<u64>,
    period_scale: Vec<f64>,
    priority_rot: Vec<u32>,
    base_params: Vec<TaskParams>,
}

impl Plan {
    /// Resolves `grid` against `spec`: absent axes inherit the spec's
    /// single value, every swept cache shape is validated eagerly, and
    /// the cross-product size is bounded by [`MAX_POINTS`].
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Spec`] for an oversized grid and
    /// [`CliError::Options`] for an invalid swept cache shape. The base
    /// spec's periods and priorities were checked when it was parsed.
    pub fn new(spec: &SystemSpec, grid: &Grid) -> Result<Plan, CliError> {
        let base_params: Vec<TaskParams> = spec
            .tasks
            .iter()
            .map(|t| TaskParams { period: t.period, priority: t.priority })
            .collect();
        let or = |axis: &[u32], base: u32| {
            if axis.is_empty() {
                vec![base]
            } else {
                axis.to_vec()
            }
        };
        let n = u32::try_from(base_params.len()).map_err(|_| {
            CliError::Spec(format!(
                "{} tasks exceed the {} a sweep can rotate",
                base_params.len(),
                u32::MAX
            ))
        })?;
        let plan = Plan {
            approach: if grid.approach.is_empty() {
                vec![CrpdApproach::Combined]
            } else {
                grid.approach.clone()
            },
            sets: or(&grid.sets, spec.cache.sets),
            ways: or(&grid.ways, spec.cache.ways),
            line: or(&grid.line, spec.cache.line),
            cmiss: if grid.cmiss.is_empty() { vec![spec.cache.cmiss] } else { grid.cmiss.clone() },
            ccs: if grid.ccs.is_empty() { vec![spec.ctx_switch] } else { grid.ccs.clone() },
            period_scale: if grid.period_scale.is_empty() {
                vec![1.0]
            } else {
                grid.period_scale.clone()
            },
            priority_rot: if grid.priority_rot.is_empty() {
                vec![0]
            } else {
                grid.priority_rot.iter().map(|k| k % n).collect()
            },
            base_params,
        };
        // Validate every swept cache shape before any analysis runs.
        for &sets in &plan.sets {
            for &ways in &plan.ways {
                for &line in &plan.line {
                    CacheGeometry::new(sets, ways, line)
                        .map_err(|e| CliError::Options(format!("swept cache shape: {e}")))?;
                }
            }
        }
        let len = plan
            .axis_lens()
            .iter()
            .try_fold(1usize, |acc, &l| acc.checked_mul(l))
            .filter(|&l| l <= MAX_POINTS);
        if len.is_none() {
            return Err(CliError::Spec(format!(
                "grid enumerates more than {MAX_POINTS} points; shrink an axis"
            )));
        }
        Ok(plan)
    }

    /// Axis lengths in enumeration order (slowest first).
    fn axis_lens(&self) -> [usize; 8] {
        [
            self.approach.len(),
            self.sets.len(),
            self.ways.len(),
            self.line.len(),
            self.cmiss.len(),
            self.ccs.len(),
            self.period_scale.len(),
            self.priority_rot.len(),
        ]
    }

    /// Total number of sweep points (the axis cross product).
    pub fn len(&self) -> usize {
        self.axis_lens().iter().product()
    }

    /// `true` when the plan has no points (never: every axis holds at
    /// least one value).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of tasks in the base spec.
    pub fn task_count(&self) -> usize {
        self.base_params.len()
    }

    /// Human-readable axis summary for report headers.
    pub fn describe_axes(&self) -> String {
        let [a, s, w, l, cm, cc, ps, pr] = self.axis_lens();
        format!(
            "{} approaches x {} sets x {} ways x {} lines x {} cmiss x {} ccs \
             x {} period-scales x {} priority-rots",
            a, s, w, l, cm, cc, ps, pr
        )
    }

    /// Decodes point `index` into its per-axis values (the mixed-radix
    /// digits of `index`, priority-rot varying fastest).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn point(&self, index: usize) -> PointConfig {
        assert!(index < self.len(), "point {index} out of range ({} points)", self.len());
        let mut rest = index;
        let mut digit = |len: usize| {
            let d = rest % len;
            rest /= len;
            d
        };
        // Fastest axis first: peel digits from the least significant end.
        let priority_rot = self.priority_rot[digit(self.priority_rot.len())];
        let period_scale = self.period_scale[digit(self.period_scale.len())];
        let ccs = self.ccs[digit(self.ccs.len())];
        let cmiss = self.cmiss[digit(self.cmiss.len())];
        let line = self.line[digit(self.line.len())];
        let ways = self.ways[digit(self.ways.len())];
        let sets = self.sets[digit(self.sets.len())];
        let approach = self.approach[digit(self.approach.len())];
        PointConfig {
            index,
            approach,
            geometry: CacheGeometry::new(sets, ways, line)
                .expect("plan construction validated every swept shape"),
            cmiss,
            ccs,
            period_scale,
            priority_rot,
        }
    }

    /// The scheduling parameters of every task at `config`: periods are
    /// scaled (rounded, floored at 1 cycle) and priorities rotated —
    /// task `i` takes the base priority of task `(i + rot) mod n`, so
    /// the priority levels stay pairwise distinct.
    pub fn params_for(&self, config: &PointConfig) -> Vec<TaskParams> {
        let n = self.base_params.len();
        (0..n)
            .map(|i| TaskParams {
                #[allow(
                    clippy::cast_possible_truncation,
                    reason = "the scaled period is finite and positive, and `as` saturates"
                )]
                period: ((self.base_params[i].period as f64 * config.period_scale).round() as u64)
                    .max(1),
                priority: self.base_params[(i + config.priority_rot as usize) % n].priority,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn spec() -> SystemSpec {
        SystemSpec::parse(
            "cache 64 2 16\ncmiss 20\nccs 50\ntask hi hi.s 5000 1\ntask lo lo.s 50000 2\n",
            Path::new(""),
        )
        .unwrap()
    }

    #[test]
    fn empty_grid_is_a_single_point_inheriting_the_spec() {
        let plan = Plan::new(&spec(), &Grid::default()).unwrap();
        assert_eq!(plan.len(), 1);
        let p = plan.point(0);
        assert_eq!(p.approach, CrpdApproach::Combined);
        assert_eq!((p.geometry.sets(), p.geometry.ways(), p.geometry.line_bytes()), (64, 2, 16));
        assert_eq!((p.cmiss, p.ccs), (20, 50));
        assert_eq!(
            plan.params_for(&p),
            vec![
                TaskParams { period: 5_000, priority: 1 },
                TaskParams { period: 50_000, priority: 2 },
            ]
        );
    }

    #[test]
    fn indices_decode_in_mixed_radix_order() {
        let grid = Grid::parse(
            "sets 32 64\nways 1 2\ncmiss 20 40\nperiod-scale 1 2\npriority-rot 0 1\napproach all\n",
        )
        .unwrap();
        let plan = Plan::new(&spec(), &grid).unwrap();
        assert_eq!(plan.len(), 4 * 2 * 2 * 2 * 2 * 2);
        // Point 0 takes the first value of every axis.
        let p0 = plan.point(0);
        assert_eq!(p0.approach, CrpdApproach::AllPreemptingLines);
        assert_eq!((p0.geometry.sets(), p0.geometry.ways()), (32, 1));
        assert_eq!((p0.cmiss, p0.period_scale, p0.priority_rot), (20, 1.0, 0));
        // The fastest axis is priority-rot: index 1 bumps only it.
        let p1 = plan.point(1);
        assert_eq!(p1.priority_rot, 1);
        assert_eq!((p1.approach, p1.geometry.sets(), p1.cmiss), (p0.approach, 32, 20));
        // The slowest axis is the approach: the second half of the range
        // switches it while lower axes wrap around.
        let mid = plan.point(plan.len() / 4);
        assert_eq!(mid.approach, CrpdApproach::InterTask);
        assert_eq!((mid.geometry.sets(), mid.priority_rot), (32, 0));
        // Every index decodes to a distinct configuration.
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..plan.len() {
            let p = plan.point(i);
            assert!(seen.insert(p.describe().to_string()), "duplicate point {i}");
        }
    }

    #[test]
    fn params_scale_periods_and_rotate_priorities() {
        let grid = Grid::parse("period-scale 0.5\npriority-rot 1\n").unwrap();
        let plan = Plan::new(&spec(), &grid).unwrap();
        let params = plan.params_for(&plan.point(0));
        assert_eq!(
            params,
            vec![
                TaskParams { period: 2_500, priority: 2 },
                TaskParams { period: 25_000, priority: 1 },
            ]
        );
        // Rotation permutes priorities: always pairwise distinct.
        let mut prios: Vec<u32> = params.iter().map(|p| p.priority).collect();
        prios.sort_unstable();
        prios.dedup();
        assert_eq!(prios.len(), 2);
    }

    #[test]
    fn tiny_scaled_periods_floor_at_one_cycle() {
        let grid = Grid::parse("period-scale 0.00001\n").unwrap();
        let plan = Plan::new(&spec(), &grid).unwrap();
        let params = plan.params_for(&plan.point(0));
        assert!(params.iter().all(|p| p.period >= 1));
    }

    #[test]
    fn rejects_bad_shapes_and_oversized_grids() {
        let bad_shape = Grid::parse("sets 3\n").unwrap();
        assert!(matches!(Plan::new(&spec(), &bad_shape), Err(CliError::Options(_))));

        let huge = Grid {
            cmiss: (0..2_000u64).collect(),
            ccs: (0..2_000u64).collect(),
            ..Grid::default()
        };
        let err = Plan::new(&spec(), &huge).unwrap_err();
        assert!(err.to_string().contains("points"), "{err}");
    }

    #[test]
    fn priority_rotation_wraps_modulo_the_task_count() {
        let grid = Grid::parse("priority-rot 0 2 5\n").unwrap();
        let plan = Plan::new(&spec(), &grid).unwrap();
        // n = 2, so rotations reduce to 0, 0, 1.
        assert_eq!(plan.point(0).priority_rot, 0);
        assert_eq!(plan.point(1).priority_rot, 0);
        assert_eq!(plan.point(2).priority_rot, 1);
    }
}
