//! The serve replay's inputs and load: a pre-rendered, Zipf-skewed
//! tenant plan, in-process servers configured as `repro serve`
//! configures them, and a closed loop of one client per connection.

use crate::plan::{per_connection, plan, PlanConfig};
use rsc_serve::{Client, ClientConfig, Endpoint, Frame, Server};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Distinct tenants: four times the live ceiling, so the tail is evicted.
pub const TENANTS: u64 = 32;
/// The servers' `--max-live`.
pub const MAX_LIVE: usize = 8;
/// Client connections, one per core of the reference host.
pub const CONNECTIONS: usize = 2;
/// Frames in the plan.
pub const FRAMES: usize = 500;
/// Events per frame. At the `repro load` default of 500, thread spawns
/// on restore and cross-thread wake-ups dominate a frame's round trip;
/// at 8000 the controller work does.
pub const EVENTS_PER_FRAME: u64 = 8000;
/// Zipf exponent of tenant popularity.
pub const ZIPF_S: f64 = 1.0;

/// The plan shape for a seed.
pub fn plan_config(seed: u64) -> PlanConfig {
    PlanConfig {
        tenants: TENANTS,
        connections: CONNECTIONS,
        frames: FRAMES,
        events_per_frame: EVENTS_PER_FRAME,
        zipf_s: ZIPF_S,
        seed,
    }
}

/// Frames rendered before any timing: the whole plan in order, and the
/// same frames split by connection.
pub struct Rendered {
    /// Every frame in plan order.
    pub global: Vec<Frame>,
    /// Frames per connection, in plan order.
    pub per_conn: Vec<Vec<Frame>>,
}

fn events_frame(f: &rsc_serve::load::PlannedFrame) -> Frame {
    Frame::Events {
        tenant: f.tenant,
        payload: f.payload(),
    }
}

/// Renders the plan for `cfg` into frames.
pub fn render(cfg: &PlanConfig) -> Rendered {
    let p = plan(cfg);
    Rendered {
        global: p.iter().map(events_frame).collect(),
        per_conn: per_connection(&p, cfg.connections)
            .iter()
            .map(|c| c.iter().map(events_frame).collect())
            .collect(),
    }
}

/// The `repro serve` flags the in-process servers are configured with.
fn server_args(dir: &Path) -> Vec<String> {
    let p = |name: &str| dir.join(name).display().to_string();
    [
        "--addr",
        "127.0.0.1:0",
        "--checkpoint-dir",
        &p("state"),
        "--max-live",
        &MAX_LIVE.to_string(),
        "--shards",
        "2",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// What the closed-loop clients saw.
#[derive(Debug, Default)]
pub struct LoadOutcome {
    /// Frames neither acknowledged nor sent.
    pub failed: u64,
    /// Share of client time spent outside `Client::request`.
    pub gen_busy_frac: f64,
}

/// Sends each connection's frames in order, one outstanding frame per
/// connection. Every connection is opened and pinged before the clock
/// starts. Frames not sent by `deadline`, and frames the server did not
/// acknowledge, count as failed.
pub fn drive(endpoint: &Endpoint, per_conn: &[Vec<Frame>], deadline: Instant) -> LoadOutcome {
    let abort = AtomicBool::new(false);
    let done = AtomicBool::new(false);
    let ready = Barrier::new(per_conn.len() + 1);
    let parts = std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::SeqCst) {
                if Instant::now() >= deadline {
                    abort.store(true, Ordering::SeqCst);
                    return;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        let handles: Vec<_> = per_conn
            .iter()
            .map(|frames| {
                let (abort, ready) = (&abort, &ready);
                s.spawn(move || {
                    let mut failed = 0;
                    let mut client = Client::new(ClientConfig::new(endpoint.clone()));
                    let connected = matches!(client.request(&Frame::Ping), Ok(Frame::Pong));
                    ready.wait();
                    let began = Instant::now();
                    let mut in_request = Duration::ZERO;
                    for frame in frames {
                        if !connected || abort.load(Ordering::SeqCst) {
                            failed += 1;
                            continue;
                        }
                        let t = Instant::now();
                        let resp = client.request(frame);
                        in_request += t.elapsed();
                        match resp {
                            Ok(Frame::Ack { .. }) => {}
                            // Failed after the client's own retries: stop
                            // sending on every connection rather than
                            // retry each frame.
                            Err(_) => {
                                failed += 1;
                                abort.store(true, Ordering::SeqCst);
                            }
                            _ => failed += 1,
                        }
                    }
                    (failed, began.elapsed(), in_request)
                })
            })
            .collect();
        ready.wait();
        let parts: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("load client panicked"))
            .collect();
        done.store(true, Ordering::SeqCst);
        parts
    });
    let (mut failed, mut wall, mut busy) = (0, 0.0, 0.0);
    for (f, w, r) in parts {
        failed += f;
        wall += w.as_secs_f64();
        busy += (w - r.min(w)).as_secs_f64();
    }
    LoadOutcome {
        failed,
        gen_busy_frac: if wall > 0.0 { busy / wall } else { 0.0 },
    }
}

/// A fresh in-process `Server` configured as `repro serve` with
/// [`server_args`].
///
/// # Errors
///
/// Describes a checkpoint-directory failure.
pub fn in_process_server(dir: &Path) -> Result<Server, String> {
    let args = rsc_bench::serve_cli::parse(&server_args(dir))?;
    Server::new(args.server_config()).map_err(|e| format!("in-process server: {e}"))
}
