//! The traced replay: the benchmark's own calls into each layer's public
//! functions, on the workload's inputs, with a span around each call.
//!
//! Every workload replays every layer so that each per-layer metric is
//! present on each workload. The trace, profile, control and MSSP layers
//! on a workload's path run at the workload's own scale; those off it
//! run on a small probe input from the same seed and explain nothing
//! about that workload's end-to-end numbers. The serve layer always
//! replays the full serve plan in process, so it is measured at scale
//! on every workload (see `perfbench/README.md` for the map).

use crate::paper::{Paper, MODEL_EVENTS};
use crate::serve::{drive, in_process_server, plan_config, render, Rendered};
use crate::span::{closure, totals_by_name, Span, SpanId, Tracer};
use crate::stats::{median, tail_percentile, Metric};
use rsc_bench::experiments::{fig2, fig7};
use rsc_control::{engine, ControllerParams, ReactiveController, TransitionLogPolicy};
use rsc_mssp::{
    machine, Cache, CoreModel, InstrBlock, MemoryModel, MsspParams, ProgramStream, StepMemo,
};
use rsc_profile::{evaluate, initial, offline, pareto, BranchProfile, SpeculationSet};
use rsc_serve::{ChaosConfig, CheckpointStore, Frame};
use rsc_trace::io::{read_trace_with_limit, MAX_TRACE_EVENTS};
use rsc_trace::{spec2000, BranchId, BranchRecord, InputId};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Models and events a probe input uses for a layer off the workload's
/// path.
const PROBE_MODELS: [&str; 2] = ["gcc", "mcf"];
const PROBE_PAPER_EVENTS: u64 = 300_000;
const PROBE_MSSP_EVENTS: u64 = 250_000;

/// Branch events per controller chunk, as the chunked drivers use.
const CHUNK: usize = engine::DEFAULT_CHUNK_EVENTS;
/// Branch events per MSSP block, as `run_baseline_chunked` uses.
const BLOCK_EVENTS: u64 = 2048;

/// The inputs of one replay.
struct Scale {
    paper_models: Vec<&'static str>,
    paper_events: u64,
    mssp_models: Vec<&'static str>,
    mssp_events: u64,
    /// Whose tasks set `util.par_map_max_over_mean`.
    main_is_mssp: bool,
}

fn scale(workload: &str, seed: u64) -> Scale {
    let all = spec2000::NAMES.to_vec();
    let mssp_full = fig7::mssp_events(&Paper::Mssp.opts(seed));
    match workload {
        "paper-model" => Scale {
            paper_models: all,
            paper_events: MODEL_EVENTS,
            mssp_models: PROBE_MODELS.to_vec(),
            mssp_events: PROBE_MSSP_EVENTS,
            main_is_mssp: false,
        },
        "paper-mssp" => Scale {
            paper_models: PROBE_MODELS.to_vec(),
            paper_events: PROBE_PAPER_EVENTS,
            mssp_models: all,
            mssp_events: mssp_full,
            main_is_mssp: true,
        },
        _ => Scale {
            paper_models: PROBE_MODELS.to_vec(),
            paper_events: PROBE_PAPER_EVENTS,
            mssp_models: PROBE_MODELS.to_vec(),
            mssp_events: PROBE_MSSP_EVENTS,
            main_is_mssp: false,
        },
    }
}

/// What a replay measured.
pub struct Outcome {
    /// Replay wall time, seconds.
    pub wall_s: f64,
    /// Per-layer metrics (empty with spans off).
    pub metrics: Vec<Metric>,
    /// Cross-path consistency failures seen by the replay.
    pub failures: Vec<String>,
}

fn materialize(trace: &mut rsc_trace::Trace<'_>, events: u64) -> Vec<BranchRecord> {
    let blank = BranchRecord {
        branch: BranchId::new(0),
        taken: false,
        instr: 0,
    };
    let mut out = vec![blank; events as usize];
    let mut at = 0;
    while at < out.len() {
        let n = trace.fill(&mut out[at..(at + CHUNK).min(events as usize)]);
        if n == 0 {
            break;
        }
        at += n;
    }
    out.truncate(at);
    out
}

/// Per-model controller counts from the paper replay.
#[derive(Default, Clone, Copy)]
struct ControlCounts {
    events: u64,
    incorrect: u64,
}

fn paper_task(t: &Tracer, name: &str, events: u64, seed: u64) -> ControlCounts {
    let model = spec2000::benchmark(name).expect("known benchmark");
    t.span(SpanId::ROOT, "bench.paper_task", 1, |root| {
        let pop = t.span(root, "trace.population", 1, |_| model.population(events));
        t.span(root, "trace.iter", events, |_| {
            let mut acc = 0u64;
            for r in pop.trace(InputId::Eval, events, seed) {
                acc ^= black_box(r).instr;
            }
            black_box(acc);
        });
        let records = t.span(root, "trace.fill", events, |_| {
            materialize(&mut pop.trace(InputId::Eval, events, seed), events)
        });
        let profile = t.span(root, "profile.from_trace", events, |_| {
            BranchProfile::from_trace(records.iter().copied())
        });
        t.span(root, "profile.record_chunk", events, |_| {
            let mut p = BranchProfile::new();
            for c in records.chunks(CHUNK) {
                p.record_chunk(c);
            }
            black_box(p);
        });
        t.span(root, "profile.pareto", 1, |_| {
            black_box(pareto::curve(&profile));
            black_box(pareto::threshold_point(&profile, 0.99));
        });
        t.span(root, "profile.cross_input", 1, |_| {
            black_box(offline::cross_input_experiment(
                &pop, events, seed, 0.99, 32,
            ));
        });
        // The initial-behaviour marks exactly as fig2 computes them.
        t.span(root, "profile.initial", 1, |_| {
            for n in fig2::training_lengths(events) {
                let p = initial::initial_profile(pop.trace(InputId::Eval, events, seed), n);
                let set = SpeculationSet::from_profile(&p, 0.99, n.min(100));
                black_box(evaluate::evaluate_after_training(
                    &set,
                    pop.trace(InputId::Eval, events, seed),
                    n,
                ));
            }
        });
        let params = ControllerParams::scaled();
        let stats = t.span(root, "control.observe", events, |_| {
            engine::run_trace(params, records.iter().copied())
                .expect("scaled params are valid")
                .stats
        });
        t.span(root, "control.observe_chunk", events, |_| {
            let mut ctl = ReactiveController::builder(params)
                .log_policy(TransitionLogPolicy::Full)
                .build()
                .expect("scaled params are valid");
            for c in records.chunks(CHUNK) {
                ctl.observe_chunk(c);
            }
            black_box(ctl.stats());
        });
        ControlCounts {
            events: stats.events,
            incorrect: stats.incorrect,
        }
    })
}

/// Per-model MSSP counts from the replay, and whether the execution
/// modes agreed.
#[derive(Default, Clone, Copy)]
struct MsspCounts {
    cycles: u64,
    tasks: u64,
    squashed: u64,
    modes_agree: bool,
}

fn mssp_task(t: &Tracer, name: &str, events: u64, seed: u64) -> MsspCounts {
    let model = spec2000::benchmark(name).expect("known benchmark");
    let pop = model.population(events);
    let params = MsspParams::new();
    let m = &params.machine;
    t.span(SpanId::ROOT, "bench.mssp_task", 1, |root| {
        let base = t.span(root, "mssp.baseline", events, |_| {
            machine::run_baseline(&pop, InputId::Eval, events, seed, m)
        });
        let base_chunked = t.span(root, "mssp.baseline_chunked", events, |_| {
            machine::run_baseline_chunked(&pop, InputId::Eval, events, seed, m)
        });
        let run = t.span(root, "mssp.run", events, |_| {
            machine::run_mssp_only(&pop, InputId::Eval, events, seed, &params)
        });
        let chunked = t.span(root, "mssp.run_chunked", events, |_| {
            machine::run_mssp_only_chunked(&pop, InputId::Eval, events, seed, &params)
        });
        let speculative = t.span(root, "mssp.run_speculative", events, |_| {
            machine::run_mssp_only_speculative(&pop, InputId::Eval, events, seed, &params)
        });
        let blocks = t.span(root, "mssp.fill_block", events, |_| {
            let mem = MemoryModel::for_benchmark(pop.name());
            let mut stream = ProgramStream::new(&pop, InputId::Eval, events, seed, mem);
            let mut blocks = Vec::new();
            loop {
                let mut b = InstrBlock::default();
                stream.fill_block_arms(&mut b, BLOCK_EVENTS);
                if b.is_empty() {
                    break;
                }
                blocks.push(b);
            }
            blocks
        });
        let instrs: u64 = blocks.iter().map(InstrBlock::instructions).sum();
        let stepped = t.span(root, "mssp.step_block", instrs, |_| {
            let mut core = CoreModel::new(m.leading, m);
            let mut l2 = Cache::new(m.l2_kib, m.l2_assoc, m.block_bytes);
            let mut memo = StepMemo::new(&core, &l2);
            for b in &blocks {
                core.step_block(b, &mut l2, &mut memo);
            }
            core.cycles()
        });
        MsspCounts {
            cycles: run.mssp_cycles,
            tasks: run.tasks,
            squashed: run.task_misspecs,
            modes_agree: base == base_chunked
                && base == stepped
                && run == chunked
                && run == speculative,
        }
    })
}

/// Serve-layer measurements that are not span totals.
struct ServeCounts {
    respond_hot_us: Vec<f64>,
    respond_restore_us: Vec<f64>,
    store_save_ms: Vec<f64>,
    store_load_ms: Vec<f64>,
    frames: u64,
    restores: u64,
    failed: u64,
    gen_busy_frac: f64,
}

fn serve_layers(t: &Tracer, frames: &Rendered, dir: &Path) -> Result<ServeCounts, String> {
    let mut out = ServeCounts {
        respond_hot_us: Vec::new(),
        respond_restore_us: Vec::new(),
        store_save_ms: Vec::new(),
        store_load_ms: Vec::new(),
        frames: frames.global.len() as u64,
        restores: 0,
        failed: 0,
        gen_busy_frac: 0.0,
    };
    t.span(SpanId::ROOT, "bench.serve_frames", 1, |root| {
        let mut tenants: BTreeMap<u64, rsc_control::ShardedController> = BTreeMap::new();
        for f in &frames.global {
            let Frame::Events { tenant, payload } = f else {
                continue;
            };
            let wire = f.encode();
            let frame = t.span(root, "serve.frame_decode", 1, |_| {
                rsc_serve::read_frame(&mut &wire[..]).expect("rendered frames decode")
            });
            black_box(frame);
            let records = t.span(root, "trace.rsct_decode", 0, |_| {
                read_trace_with_limit(&mut &payload[..], MAX_TRACE_EVENTS)
                    .expect("rendered payloads decode")
            });
            let n = records.len() as u64;
            if !tenants.contains_key(tenant) {
                let ctl = t.span(root, "control.shard_build", 1, |_| {
                    ReactiveController::builder(ControllerParams::scaled())
                        .shards(2)
                        .build_sharded()
                        .expect("scaled params are valid")
                });
                tenants.insert(*tenant, ctl);
            }
            let ctl = tenants.get_mut(tenant).expect("inserted above");
            t.span(root, "control.shard_observe", n, |_| {
                black_box(ctl.observe_chunk(&records));
            });
        }
    });
    let server = in_process_server(&dir.join("respond"))?;
    t.span(SpanId::ROOT, "bench.serve_respond", 1, |root| {
        for f in &frames.global {
            let f = f.clone();
            let before = server.counters().restores;
            let start = Instant::now();
            let resp = t.span(root, "serve.respond", 1, |_| server.respond(f));
            let us = start.elapsed().as_secs_f64() * 1e6;
            if !matches!(resp, Frame::Ack { .. }) {
                out.failed += 1;
            }
            if server.counters().restores > before {
                out.respond_restore_us.push(us);
            } else {
                out.respond_hot_us.push(us);
            }
        }
    });
    out.restores = server.counters().restores;
    let drained = server.drain();
    out.failed += drained.failed;
    drop(server);
    let src = CheckpointStore::open(dir.join("respond").join("state"), ChaosConfig::off())
        .map_err(|e| format!("replay store: {e}"))?;
    let mut dst = CheckpointStore::open(dir.join("saved"), ChaosConfig::off())
        .map_err(|e| format!("replay store: {e}"))?;
    let ids = src.list().map_err(|e| format!("replay store: {e}"))?;
    t.span(SpanId::ROOT, "bench.serve_store", 1, |root| {
        for id in ids {
            let start = Instant::now();
            let rec = t.span(root, "serve.store_load", 1, |_| src.load(id));
            out.store_load_ms.push(start.elapsed().as_secs_f64() * 1e3);
            let Ok(Some(rec)) = rec else {
                out.failed += 1;
                continue;
            };
            let start = Instant::now();
            if t.span(root, "serve.store_save", 1, |_| dst.save(&rec))
                .is_err()
            {
                out.failed += 1;
            }
            out.store_save_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
    });
    let tcp = in_process_server(&dir.join("tcp"))?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let endpoint = rsc_serve::Endpoint::Tcp(
        listener
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?
            .to_string(),
    );
    let stop = Arc::new(AtomicBool::new(false));
    let load = std::thread::scope(|s| {
        let serving = {
            let (tcp, stop) = (tcp.clone(), Arc::clone(&stop));
            s.spawn(move || tcp.serve_tcp(listener, stop))
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        let load = t.span(SpanId::ROOT, "bench.serve_tcp", 1, |root| {
            t.span(root, "serve.tcp_loop", out.frames, |_| {
                drive(&endpoint, &frames.per_conn, deadline)
            })
        });
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        let _ = serving.join();
        load
    });
    out.failed += load.failed;
    out.gen_busy_frac = load.gen_busy_frac;
    Ok(out)
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Runs the replay for `workload` and summarises its spans.
///
/// # Errors
///
/// Describes a serve-layer setup failure.
pub fn run(workload: &str, seed: u64, spans_on: bool, dir: &Path) -> Result<Outcome, String> {
    let sc = scale(workload, seed);
    let frames = render(&plan_config(seed));
    let t = Tracer::new(spans_on);
    let start = Instant::now();
    let control = rsc_util::par_map(sc.paper_models.clone(), |m| {
        paper_task(&t, m, sc.paper_events, seed)
    });
    let mssp = rsc_util::par_map(sc.mssp_models.clone(), |m| {
        mssp_task(&t, m, sc.mssp_events, seed)
    });
    let serve = serve_layers(&t, &frames, dir)?;
    let wall_s = start.elapsed().as_secs_f64();
    let respond: Vec<f64> = [&serve.respond_hot_us, &serve.respond_restore_us]
        .into_iter()
        .flatten()
        .copied()
        .collect();
    if let Some((q, v)) = tail_percentile(&respond) {
        eprintln!(
            "replay: serve.respond p{q} {v:.1} us over {} frames",
            respond.len()
        );
    }

    let mut failures = Vec::new();
    if !mssp.iter().all(|m| m.modes_agree) {
        failures.push("MSSP execution modes disagree".to_string());
    }
    if serve.failed > 0 {
        failures.push(format!("{} serve replay operation(s) failed", serve.failed));
    }
    if !spans_on {
        return Ok(Outcome {
            wall_s,
            metrics: Vec::new(),
            failures,
        });
    }
    let spans = t.finish();
    Ok(Outcome {
        wall_s,
        metrics: summarise(&spans, &sc, &control, &mssp, &serve),
        failures,
    })
}

fn summarise(
    spans: &[Span],
    sc: &Scale,
    control: &[ControlCounts],
    mssp: &[MsspCounts],
    serve: &ServeCounts,
) -> Vec<Metric> {
    let totals = totals_by_name(spans);
    let tot = |n: &str| totals.get(n).copied().unwrap_or_default();
    let ns = |n: &str| tot(n).ns_per_unit();
    let secs = |n: &str| tot(n).self_ns as f64 / 1e9;
    // RSCT decode spans are opened before the event count is known;
    // the same events reach the shard observe spans.
    let decode_events: u64 = tot("control.shard_observe").work;
    let med = |xs: &[f64]| median(xs).unwrap_or(0.0);
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let root = if sc.main_is_mssp {
        "bench.mssp_task"
    } else {
        "bench.paper_task"
    };
    let task_s: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == root)
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .collect();
    let task_mean = task_s.iter().sum::<f64>() / task_s.len().max(1) as f64;
    let task_max = task_s.iter().copied().fold(0.0, f64::max);
    let sum = |f: fn(&MsspCounts) -> u64| mssp.iter().map(f).sum::<u64>();
    vec![
        metric("trace.population_s", secs("trace.population"), "s"),
        metric("trace.iter_ns_per_event", ns("trace.iter"), "ns"),
        metric("trace.fill_ns_per_event", ns("trace.fill"), "ns"),
        metric(
            "trace.rsct_decode_ns_per_event",
            tot("trace.rsct_decode").self_ns as f64 / decode_events.max(1) as f64,
            "ns",
        ),
        metric(
            "profile.from_trace_self_ns_per_event",
            ns("profile.from_trace"),
            "ns",
        ),
        metric(
            "profile.record_chunk_ns_per_event",
            ns("profile.record_chunk"),
            "ns",
        ),
        metric("profile.pareto_s", secs("profile.pareto"), "s"),
        metric("profile.cross_input_s", secs("profile.cross_input"), "s"),
        metric("profile.initial_s", secs("profile.initial"), "s"),
        metric("control.observe_ns_per_event", ns("control.observe"), "ns"),
        metric(
            "control.observe_chunk_ns_per_event",
            ns("control.observe_chunk"),
            "ns",
        ),
        metric(
            "control.shard_build_us",
            ns("control.shard_build") / 1e3,
            "us",
        ),
        metric(
            "control.shard_observe_ns_per_event",
            ns("control.shard_observe"),
            "ns",
        ),
        metric(
            "control.misspec_frac",
            ratio(
                control.iter().map(|c| c.incorrect).sum(),
                control.iter().map(|c| c.events).sum(),
            ),
            "ratio",
        ),
        metric("mssp.baseline_ns_per_event", ns("mssp.baseline"), "ns"),
        metric(
            "mssp.baseline_chunked_ns_per_event",
            ns("mssp.baseline_chunked"),
            "ns",
        ),
        metric("mssp.run_ns_per_event", ns("mssp.run"), "ns"),
        metric(
            "mssp.run_chunked_ns_per_event",
            ns("mssp.run_chunked"),
            "ns",
        ),
        metric(
            "mssp.run_speculative_ns_per_event",
            ns("mssp.run_speculative"),
            "ns",
        ),
        metric("mssp.fill_block_ns_per_event", ns("mssp.fill_block"), "ns"),
        metric("mssp.step_block_ns_per_instr", ns("mssp.step_block"), "ns"),
        metric(
            "mssp.task_squash_frac",
            ratio(sum(|m| m.squashed), sum(|m| m.tasks)),
            "ratio",
        ),
        metric("mssp.sim_cycles", sum(|m| m.cycles) as f64, "count"),
        metric(
            "serve.frame_decode_us",
            ns("serve.frame_decode") / 1e3,
            "us",
        ),
        metric("serve.respond_hot_us", med(&serve.respond_hot_us), "us"),
        metric(
            "serve.respond_restore_us",
            med(&serve.respond_restore_us),
            "us",
        ),
        metric("serve.store_save_ms", med(&serve.store_save_ms), "ms"),
        metric("serve.store_load_ms", med(&serve.store_load_ms), "ms"),
        metric(
            "serve.restore_frac",
            ratio(serve.restores, serve.frames),
            "ratio",
        ),
        metric("serve.gen_busy_frac", serve.gen_busy_frac, "ratio"),
        metric(
            "util.par_map_max_over_mean",
            if task_mean > 0.0 {
                task_max / task_mean
            } else {
                0.0
            },
            "ratio",
        ),
        metric("bench.replay_closure_frac", closure(spans), "ratio"),
    ]
}
