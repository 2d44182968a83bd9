//! Savestate benchmarks: the cost of checkpointing a full endurance
//! world to disk and of rebuilding one from the serialized payload.
//!
//! `snapshot/save` measures capture + serialize + crash-safe write
//! (the atomic tmp-write/fsync/rename path every checkpoint takes);
//! `snapshot/restore` measures parse + world reconstruction from the
//! same payload. Both use a 3-tick fast world, so neither sees history.
//!
//! `snapshot/encode/1100` measures capture + serialize of the full
//! seed-7 endurance world stepped to 1100 ticks, whose 1.6 MB payload
//! is 98% run history. Every sample after the first splices the
//! history text its first capture sealed, as a checkpoint does with
//! everything older than the previous checkpoint.
//!
//! `snapshot/decode/1100` measures `WorldSnapshot::parse` of that same
//! world's payload: the streaming decode a restore pays before it
//! rebuilds the world.

use icm_bench::{black_box, Bench};
use icm_experiments::endurance::World;
use icm_experiments::ExpConfig;
use icm_json::fs::atomic_write;
use icm_obs::Tracer;

fn main() {
    let mut b = Bench::from_args();

    let cfg = ExpConfig {
        seed: 2016,
        fast: true,
    };
    let tracer = Tracer::disabled();
    let mut world = World::new(&cfg, &tracer).expect("world builds");
    // Advance a few ticks so the snapshot carries real history (noise
    // position, online-model corrections, provenance records).
    for _ in 0..3 {
        world.step(&tracer).expect("steps");
    }

    let dir = std::env::temp_dir().join("icm-bench-snapshot");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("world.icmsnap");

    b.bench("snapshot/save", || {
        let text = world.snapshot(&tracer, None, 0).to_text();
        atomic_write(&path, text.as_bytes()).expect("writes");
        black_box(text.len())
    });

    let text = world.snapshot(&tracer, None, 0).to_text();
    b.bench("snapshot/restore", || {
        let snapshot =
            icm_manager::snapshot::WorldSnapshot::parse(black_box(&text)).expect("parses");
        World::restore(snapshot, &tracer).expect("restores")
    });

    let _ = std::fs::remove_dir_all(&dir);

    let cfg = ExpConfig {
        seed: 7,
        fast: false,
    };
    let mut world = World::new(&cfg, &tracer).expect("world builds");
    world.config.ticks = 1100;
    while !world.run.is_done(&world.config) {
        world.step(&tracer).expect("steps");
    }
    b.bench("snapshot/encode/1100", || {
        black_box(world.snapshot(&tracer, None, 0).to_text().len())
    });

    let text = world.snapshot(&tracer, None, 0).to_text();
    b.bench("snapshot/decode/1100", || {
        icm_manager::snapshot::WorldSnapshot::parse(black_box(&text)).expect("parses")
    });
}
