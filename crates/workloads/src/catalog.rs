//! The paper's 18-workload catalog (Table 1) as synthetic application
//! descriptors.
//!
//! We cannot run the real SPEC/NPB/Hadoop/Spark binaries; what the
//! interference methodology consumes is each application's *interference
//! phenotype* — how much pressure it generates (Table 4), how sensitive it
//! is, and how interference propagates through its parallel structure
//! (Fig. 3, Table 2). Each entry below is a mechanistic parameterization
//! (working set, bandwidth, synchronization pattern) whose *emergent*
//! phenotype on the simulated testbed is calibrated to the paper's
//! reported one. `EXPERIMENTS.md` records the fidelity actually achieved.

use icm_simcluster::{AppSpec, MasterBehavior, SyncPattern};
use icm_simnode::MemoryProfile;

use crate::spec::{PaperReference, PropagationClass, WorkloadSpec, WorkloadType};

/// A named collection of workloads (normally [`Catalog::paper`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Catalog {
    workloads: Vec<WorkloadSpec>,
}

/// Raw calibration row for one catalog entry.
struct Row {
    name: &'static str,
    ty: WorkloadType,
    base_s: f64,
    ws_mb: f64,
    access: f64,
    bw: f64,
    miss_bw: f64,
    cache_sens: f64,
    bw_sens: f64,
    pattern: SyncPattern,
    master: MasterBehavior,
    io_sens: f64,
    volatility: f64,
    score: f64,
    class: PropagationClass,
    max_flavored: bool,
}

impl Row {
    fn build(&self) -> WorkloadSpec {
        let profile = MemoryProfile::builder()
            .working_set_mb(self.ws_mb)
            .access_weight(self.access)
            .bandwidth_gbps(self.bw)
            .miss_bandwidth_gbps(self.miss_bw)
            .cache_sensitivity(self.cache_sens)
            .bandwidth_sensitivity(self.bw_sens)
            .build()
            .expect("catalog profiles are valid by construction");
        let app = AppSpec::builder(self.name)
            .base_runtime_s(self.base_s)
            .worker_profile(profile)
            .pattern(self.pattern)
            .master(self.master)
            .io_sensitivity(self.io_sens)
            .cpu_volatility(self.volatility)
            .build()
            .expect("catalog apps are valid by construction");
        WorkloadSpec::new(
            app,
            self.ty,
            PaperReference {
                bubble_score: self.score,
                propagation: self.class,
                max_flavored_policy: self.max_flavored,
            },
        )
    }
}

const PARTICIPATES: MasterBehavior = MasterBehavior::Participates;
const HADOOP_MASTER: MasterBehavior = MasterBehavior::Coordinator { demand_frac: 0.20 };
const SPARK_DRIVER: MasterBehavior = MasterBehavior::Coordinator { demand_frac: 0.25 };

/// High-propagation MPI pattern: frequent allreduce/barrier phases.
const fn mpi(phases: usize, coupling: f64) -> SyncPattern {
    SyncPattern::Collective { phases, coupling }
}

fn rows() -> Vec<Row> {
    use PropagationClass::{High, Low, Proportional};
    use WorkloadType::{Hadoop, Npb, Spark, SpecCpu, SpecMpi};
    vec![
        // ---- SPEC MPI2007 (mref) --------------------------------------
        Row {
            name: "M.milc",
            ty: SpecMpi,
            base_s: 220.0,
            ws_mb: 26.0,
            access: 1.10,
            bw: 12.0,
            miss_bw: 30.0,
            cache_sens: 1.05,
            bw_sens: 0.85,
            pattern: mpi(48, 0.93),
            master: PARTICIPATES,
            io_sens: 0.0,
            volatility: 0.15,
            score: 4.3,
            class: High,
            max_flavored: true,
        },
        Row {
            name: "M.lesl",
            ty: SpecMpi,
            base_s: 260.0,
            ws_mb: 23.0,
            access: 1.05,
            bw: 10.0,
            miss_bw: 26.0,
            cache_sens: 0.95,
            bw_sens: 0.80,
            pattern: mpi(40, 0.90),
            master: PARTICIPATES,
            io_sens: 0.0,
            volatility: 0.15,
            score: 3.9,
            class: High,
            max_flavored: true,
        },
        Row {
            // Uses latency-sensitive blocked I/O and almost no collectives
            // (§3.2, §4.3): proportional propagation, plus sensitivity to
            // co-runner CPU-load fluctuation the static model cannot see.
            name: "M.Gems",
            ty: SpecMpi,
            base_s: 300.0,
            ws_mb: 16.0,
            access: 0.95,
            bw: 8.0,
            miss_bw: 22.0,
            cache_sens: 1.50,
            bw_sens: 0.75,
            pattern: mpi(40, 0.03),
            master: PARTICIPATES,
            io_sens: 0.30,
            volatility: 0.15,
            score: 2.4,
            class: Proportional,
            max_flavored: false,
        },
        Row {
            // Small footprint (score 1.0) but very barrier-coupled and
            // cache-sensitive: the Fig. 2 motivation workload.
            name: "M.lmps",
            ty: SpecMpi,
            base_s: 240.0,
            ws_mb: 9.0,
            access: 0.95,
            bw: 4.0,
            miss_bw: 14.0,
            cache_sens: 1.30,
            bw_sens: 0.90,
            pattern: mpi(56, 0.95),
            master: PARTICIPATES,
            io_sens: 0.0,
            volatility: 0.15,
            score: 1.0,
            class: High,
            max_flavored: true,
        },
        Row {
            name: "M.zeus",
            ty: SpecMpi,
            base_s: 280.0,
            ws_mb: 9.5,
            access: 1.00,
            bw: 5.0,
            miss_bw: 16.0,
            cache_sens: 1.00,
            bw_sens: 0.80,
            pattern: mpi(44, 0.90),
            master: PARTICIPATES,
            io_sens: 0.0,
            volatility: 0.15,
            score: 1.4,
            class: High,
            max_flavored: true,
        },
        Row {
            name: "M.lu",
            ty: SpecMpi,
            base_s: 200.0,
            ws_mb: 28.0,
            access: 1.10,
            bw: 14.0,
            miss_bw: 32.0,
            cache_sens: 1.00,
            bw_sens: 0.90,
            pattern: mpi(52, 0.92),
            master: PARTICIPATES,
            io_sens: 0.0,
            volatility: 0.15,
            score: 4.6,
            class: High,
            max_flavored: true,
        },
        // ---- NPB class D -----------------------------------------------
        Row {
            name: "N.cg",
            ty: Npb,
            base_s: 180.0,
            ws_mb: 23.5,
            access: 1.05,
            bw: 11.0,
            miss_bw: 28.0,
            cache_sens: 1.15,
            bw_sens: 0.90,
            pattern: mpi(48, 0.93),
            master: PARTICIPATES,
            io_sens: 0.0,
            volatility: 0.15,
            score: 3.9,
            class: High,
            max_flavored: true,
        },
        Row {
            name: "N.mg",
            ty: Npb,
            base_s: 160.0,
            ws_mb: 33.0,
            access: 1.10,
            bw: 16.0,
            miss_bw: 34.0,
            cache_sens: 1.05,
            bw_sens: 0.90,
            pattern: mpi(44, 0.90),
            master: PARTICIPATES,
            io_sens: 0.0,
            volatility: 0.15,
            score: 5.0,
            class: High,
            max_flavored: true,
        },
        // ---- Hadoop ----------------------------------------------------
        Row {
            // Tiny working set + fine-grained dynamic tasks: resilient,
            // averages out interference (interpolate policy).
            name: "H.KM",
            ty: Hadoop,
            base_s: 320.0,
            ws_mb: 4.0,
            access: 0.80,
            bw: 1.5,
            miss_bw: 6.0,
            cache_sens: 0.35,
            bw_sens: 0.50,
            pattern: SyncPattern::TaskQueue {
                tasks: 120,
                stages: 6,
            },
            master: HADOOP_MASTER,
            io_sens: 0.0,
            volatility: 0.70,
            score: 0.2,
            class: Low,
            max_flavored: false,
        },
        // ---- Spark -----------------------------------------------------
        Row {
            // Coarse tasks: the straggler tail tracks the worst node
            // (N max flavor).
            name: "S.WC",
            ty: Spark,
            base_s: 280.0,
            ws_mb: 4.2,
            access: 0.80,
            bw: 2.0,
            miss_bw: 7.0,
            cache_sens: 0.40,
            bw_sens: 0.60,
            pattern: SyncPattern::TaskQueue {
                tasks: 14,
                stages: 3,
            },
            master: SPARK_DRIVER,
            io_sens: 0.0,
            volatility: 0.60,
            score: 0.3,
            class: Low,
            max_flavored: true,
        },
        Row {
            name: "S.CF",
            ty: Spark,
            base_s: 300.0,
            ws_mb: 6.0,
            access: 0.85,
            bw: 2.5,
            miss_bw: 8.0,
            cache_sens: 0.45,
            bw_sens: 0.60,
            pattern: SyncPattern::TaskQueue {
                tasks: 16,
                stages: 4,
            },
            master: SPARK_DRIVER,
            io_sens: 0.0,
            volatility: 0.60,
            score: 0.5,
            class: Low,
            max_flavored: true,
        },
        Row {
            name: "S.PR",
            ty: Spark,
            base_s: 340.0,
            ws_mb: 7.0,
            access: 0.90,
            bw: 3.0,
            miss_bw: 10.0,
            cache_sens: 0.45,
            bw_sens: 0.70,
            pattern: SyncPattern::TaskQueue {
                tasks: 28,
                stages: 8,
            },
            master: SPARK_DRIVER,
            io_sens: 0.0,
            volatility: 0.60,
            score: 0.7,
            class: Low,
            max_flavored: true,
        },
        // ---- SPEC CPU2006 (single-node batch co-runners) ---------------
        // 32 instances on 16 VMs: per-host demand is the aggregate of 4
        // instances. They are "distributed" only in the sense of being
        // replicated; no synchronization (coupling 0).
        Row {
            name: "C.gcc",
            ty: SpecCpu,
            base_s: 150.0,
            ws_mb: 27.0,
            access: 1.10,
            bw: 13.0,
            miss_bw: 30.0,
            cache_sens: 0.80,
            bw_sens: 0.70,
            pattern: mpi(24, 0.0),
            master: PARTICIPATES,
            io_sens: 0.0,
            volatility: 0.10,
            score: 4.8,
            class: Proportional,
            max_flavored: false,
        },
        Row {
            name: "C.mcf",
            ty: SpecCpu,
            base_s: 170.0,
            ws_mb: 31.0,
            access: 1.15,
            bw: 16.0,
            miss_bw: 34.0,
            cache_sens: 1.10,
            bw_sens: 0.85,
            pattern: mpi(24, 0.0),
            master: PARTICIPATES,
            io_sens: 0.0,
            volatility: 0.10,
            score: 5.4,
            class: Proportional,
            max_flavored: false,
        },
        Row {
            name: "C.cact",
            ty: SpecCpu,
            base_s: 190.0,
            ws_mb: 22.0,
            access: 1.05,
            bw: 11.0,
            miss_bw: 26.0,
            cache_sens: 0.75,
            bw_sens: 0.70,
            pattern: mpi(24, 0.0),
            master: PARTICIPATES,
            io_sens: 0.0,
            volatility: 0.10,
            score: 3.8,
            class: Proportional,
            max_flavored: false,
        },
        Row {
            name: "C.sopl",
            ty: SpecCpu,
            base_s: 160.0,
            ws_mb: 28.0,
            access: 1.10,
            bw: 14.0,
            miss_bw: 30.0,
            cache_sens: 0.85,
            bw_sens: 0.75,
            pattern: mpi(24, 0.0),
            master: PARTICIPATES,
            io_sens: 0.0,
            volatility: 0.10,
            score: 4.9,
            class: Proportional,
            max_flavored: false,
        },
        Row {
            // The LLC-thrashing streaming monster: top generator, but
            // itself fairly insensitive.
            name: "C.libq",
            ty: SpecCpu,
            base_s: 140.0,
            ws_mb: 50.0,
            access: 1.50,
            bw: 26.0,
            miss_bw: 42.0,
            cache_sens: 0.40,
            bw_sens: 0.80,
            pattern: mpi(24, 0.0),
            master: PARTICIPATES,
            io_sens: 0.0,
            volatility: 0.10,
            score: 6.6,
            class: Proportional,
            max_flavored: false,
        },
        Row {
            name: "C.xbmk",
            ty: SpecCpu,
            base_s: 150.0,
            ws_mb: 24.5,
            access: 1.05,
            bw: 12.0,
            miss_bw: 28.0,
            cache_sens: 0.90,
            bw_sens: 0.75,
            pattern: mpi(24, 0.0),
            master: PARTICIPATES,
            io_sens: 0.0,
            volatility: 0.10,
            score: 4.3,
            class: Proportional,
            max_flavored: false,
        },
    ]
}

impl Catalog {
    /// The full 18-workload catalog of Table 1.
    pub fn paper() -> Self {
        Self {
            workloads: rows().iter().map(Row::build).collect(),
        }
    }

    /// All workloads.
    pub fn workloads(&self) -> &[WorkloadSpec] {
        &self.workloads
    }

    /// The 12 distributed parallel applications (everything but
    /// SPEC CPU2006).
    pub fn distributed(&self) -> Vec<&WorkloadSpec> {
        self.workloads
            .iter()
            .filter(|w| w.is_distributed())
            .collect()
    }

    /// The 6 single-node batch co-runners (SPEC CPU2006).
    pub fn batch(&self) -> Vec<&WorkloadSpec> {
        self.workloads
            .iter()
            .filter(|w| !w.is_distributed())
            .collect()
    }

    /// Looks up a workload by name.
    pub fn get(&self, name: &str) -> Option<&WorkloadSpec> {
        self.workloads.iter().find(|w| w.name() == name)
    }

    /// All workload names, in catalog order.
    pub fn names(&self) -> Vec<&str> {
        self.workloads.iter().map(WorkloadSpec::name).collect()
    }

    /// Number of workloads.
    pub fn len(&self) -> usize {
        self.workloads.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.workloads.is_empty()
    }
}

impl<'a> IntoIterator for &'a Catalog {
    type Item = &'a WorkloadSpec;
    type IntoIter = std::slice::Iter<'a, WorkloadSpec>;

    fn into_iter(self) -> Self::IntoIter {
        self.workloads.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_all_18_table1_entries() {
        let catalog = Catalog::paper();
        assert_eq!(catalog.len(), 18);
        for name in [
            "M.milc", "M.lesl", "M.Gems", "M.lmps", "M.zeus", "M.lu", "N.cg", "N.mg", "H.KM",
            "S.WC", "S.CF", "S.PR", "C.gcc", "C.mcf", "C.cact", "C.sopl", "C.libq", "C.xbmk",
        ] {
            assert!(catalog.get(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn twelve_distributed_six_batch() {
        let catalog = Catalog::paper();
        assert_eq!(catalog.distributed().len(), 12);
        assert_eq!(catalog.batch().len(), 6);
    }

    #[test]
    fn reference_scores_match_table4() {
        let catalog = Catalog::paper();
        let expect = [
            ("M.milc", 4.3),
            ("M.lesl", 3.9),
            ("M.Gems", 2.4),
            ("M.lmps", 1.0),
            ("M.zeus", 1.4),
            ("M.lu", 4.6),
            ("N.cg", 3.9),
            ("N.mg", 5.0),
            ("H.KM", 0.2),
            ("S.WC", 0.3),
            ("S.CF", 0.5),
            ("S.PR", 0.7),
            ("C.gcc", 4.8),
            ("C.mcf", 5.4),
            ("C.cact", 3.8),
            ("C.sopl", 4.9),
            ("C.libq", 6.6),
            ("C.xbmk", 4.3),
        ];
        for (name, score) in expect {
            let w = catalog.get(name).expect("present");
            assert_eq!(w.reference().bubble_score, score, "{name}");
        }
    }

    #[test]
    fn gems_is_the_proportional_io_sensitive_outlier() {
        let catalog = Catalog::paper();
        let gems = catalog.get("M.Gems").expect("present");
        assert_eq!(gems.reference().propagation, PropagationClass::Proportional);
        assert!(gems.app().io_sensitivity() > 0.0);
        // No other distributed app carries I/O sensitivity.
        for w in catalog.distributed() {
            if w.name() != "M.Gems" {
                assert_eq!(w.app().io_sensitivity(), 0.0, "{}", w.name());
            }
        }
    }

    #[test]
    fn frameworks_have_coordinator_masters_and_volatile_cpu() {
        let catalog = Catalog::paper();
        for name in ["H.KM", "S.WC", "S.CF", "S.PR"] {
            let w = catalog.get(name).expect("present");
            assert!(
                matches!(w.app().master(), MasterBehavior::Coordinator { .. }),
                "{name} must have a coordinator master"
            );
            assert!(w.app().cpu_volatility() > 0.4, "{name} must be volatile");
        }
        for name in ["M.milc", "N.cg", "C.gcc"] {
            let w = catalog.get(name).expect("present");
            assert!(matches!(w.app().master(), MasterBehavior::Participates));
        }
    }

    #[test]
    fn generator_strength_tracks_paper_ranking() {
        // Working-set × access-weight (the main score driver) must be
        // ordered like Table 4 at the extremes.
        let catalog = Catalog::paper();
        let pressure = |name: &str| {
            let p = catalog.get(name).expect("present").app().worker_profile();
            p.working_set_mb() * p.access_weight()
        };
        assert!(pressure("C.libq") > pressure("C.mcf"));
        assert!(pressure("C.mcf") > pressure("M.milc"));
        assert!(pressure("M.milc") > pressure("M.zeus"));
        assert!(pressure("M.zeus") > pressure("H.KM"));
    }

    #[test]
    fn high_propagation_apps_are_tightly_coupled() {
        let catalog = Catalog::paper();
        for w in catalog.distributed() {
            if w.reference().propagation == PropagationClass::High {
                match w.app().pattern() {
                    SyncPattern::Collective { coupling, .. } => {
                        assert!(coupling > 0.8, "{} coupling {coupling}", w.name());
                    }
                    other => panic!("{} must be Collective, got {other:?}", w.name()),
                }
            }
        }
    }

    #[test]
    fn get_unknown_returns_none() {
        assert!(Catalog::paper().get("nope").is_none());
    }

    #[test]
    fn names_are_unique() {
        let catalog = Catalog::paper();
        let mut names = catalog.names();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), catalog.len());
    }

    #[test]
    fn iteration_visits_everything() {
        let catalog = Catalog::paper();
        assert_eq!((&catalog).into_iter().count(), 18);
        assert!(!catalog.is_empty());
    }
}
