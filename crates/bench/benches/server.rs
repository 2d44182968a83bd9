//! Daemon benchmarks: wall-clock cost of one request through the full
//! engine (framing → parse → admit → execute → reply), measured on the
//! paths that dominate the latency distribution.
//!
//! `server/request/predict` is the typical admitted request — an
//! interactive predict against a warm world. `server/request/place` is
//! the slowest request kind — a 400-iteration placement search.
//! Neither is a percentile: each times one request kind. `server/
//! overload/shed` is the cost of *refusing* work: a request arriving at
//! a saturated queue and leaving with a typed `overloaded` reply. Shed
//! cost matters as much as service cost — under overload it becomes the
//! daemon's entire throughput.

use icm_bench::{black_box, Bench};
use icm_server::frame::Frame;
use icm_server::server::Server;
use icm_server::world::ServerConfig;

fn feed(server: &mut Server, line: String) -> usize {
    server
        .handle_frame(&Frame::Line(line))
        .expect("frame handled")
        .len()
}

fn main() {
    let mut b = Bench::from_args();

    let mut config = ServerConfig::new(2016, true);
    config.sync = false;
    let mut server = Server::start(config, None).expect("server starts");

    // The typical admitted request: an interactive predict. Warm the
    // world once so the first-call cost does not skew calibration.
    let predict = "{\"id\":\"p\",\"kind\":\"predict\",\"app\":\"M.milc\",\
                   \"corunners\":[\"H.KM\"]}";
    feed(&mut server, predict.to_owned());
    b.bench("server/request/predict", || {
        black_box(feed(&mut server, predict.to_owned()))
    });

    // The slowest request kind: a placement search through the annealer.
    let place = "{\"id\":\"a\",\"kind\":\"place\",\"iterations\":400}";
    b.bench("server/request/place", || {
        black_box(feed(&mut server, place.to_owned()))
    });

    // Saturate the queue with timed high-priority work parked at one
    // virtual instant, then measure the refusal path: a low-priority
    // arrival at the same instant loses the comparison and is shed with
    // a typed `overloaded` reply, leaving the queue unchanged — so the
    // measurement is stable across iterations.
    let park_at = server.clock_us() / 1_000 + 60_000;
    for i in 0..server.config().queue_capacity * 2 {
        let line = format!(
            "{{\"id\":\"fill-{i}\",\"kind\":\"predict\",\"app\":\"M.milc\",\
             \"corunners\":[\"H.KM\"],\"priority\":9,\"at_ms\":{park_at},\
             \"deadline_ms\":120000}}"
        );
        feed(&mut server, line);
    }
    assert_eq!(
        server.queue_len(),
        server.config().queue_capacity,
        "queue must be saturated before the shed bench"
    );
    let shed_me = format!(
        "{{\"id\":\"s\",\"kind\":\"predict\",\"app\":\"M.milc\",\
         \"corunners\":[\"H.KM\"],\"priority\":0,\"at_ms\":{park_at},\
         \"deadline_ms\":120000}}"
    );
    b.bench("server/overload/shed", || {
        black_box(feed(&mut server, shed_me.clone()))
    });
    assert_eq!(
        server.queue_len(),
        server.config().queue_capacity,
        "shedding must leave the queue unchanged"
    );
}
