//! Frozen perf baseline embedded into every emitted `BENCH_*.json`.
//!
//! Generated by `perfsuite --emit-baseline` on the scheduler this
//! trajectory point compares against; do not edit by hand.

pub const BASELINE_ID: &str =
    "per-object-spares version store @this-commit (slab switched off; \
     process-isolated best-of-12, one child per workload, re-frozen \
     back-to-back with the BENCH_0009 run so the slab path is gated \
     against the exact code it replaces on the same host epoch)";

pub const BASELINE_HOST: &str = "linux/x86_64 1 cpu";

/// `(workload key, tasks per second)`.
pub const BASELINE: &[(&str, f64)] = &[
    ("task_storm/t1/smpss", 5838369.4),
    ("task_storm/t1/central", 5791875.9),
    ("task_storm/t2/smpss", 6218851.3),
    ("task_storm/t2/central", 5983807.8),
    ("task_storm/t4/smpss", 6086469.3),
    ("task_storm/t4/central", 6065920.8),
    ("task_storm/t8/smpss", 5646915.3),
    ("task_storm/t8/central", 5464109.6),
    ("task_chain/t1", 4461147.0),
    ("task_chain/t8", 3663923.0),
    ("spawn_storm/t1", 10805223.2),
    ("rename_storm/t1", 6050041.1),
    ("rename_churn/t4", 117358.1),
    ("region_storm/t1", 1282928.5),
    ("fanout_storm/t8", 4529611.3),
    ("chain_storm/t8", 2910575.2),
    ("locality_storm/t8", 5616292.6),
    ("submit_storm/t8", 4884149.6),
    ("panic_storm/t8", 257638.1),
    ("tenant_storm/t8", 425383.9),
    ("stencil_sweep/n66s60/t8", 207899.1),
    ("cholesky_hyper/n14/t8", 2499799.1),
    ("strassen/n4/t8", 1706991.8),
    ("multisort/n120000/t8", 104761.6),
    ("nqueens/n9l3/t8", 2336556.6),
];
