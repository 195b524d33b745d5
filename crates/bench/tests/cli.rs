//! End-to-end checks of the `repro` binary's top-level argument
//! handling: bad or missing flag values must produce a usage message on
//! stderr and exit status 2, never a panic.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

fn assert_usage_error(out: &Output, needle: &str) {
    assert_eq!(out.status.code(), Some(2), "exit code");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains(needle),
        "stderr should mention {needle:?}: {err}"
    );
    assert!(
        err.contains("usage: repro"),
        "stderr should print usage: {err}"
    );
    assert!(
        !err.contains("panicked"),
        "usage errors must not panic: {err}"
    );
}

#[test]
fn non_integer_flag_value_is_a_usage_error() {
    let out = repro(&["perf", "--events", "lots"]);
    assert_usage_error(&out, "--events");
}

#[test]
fn missing_flag_value_is_a_usage_error() {
    let out = repro(&["perf", "--shards"]);
    assert_usage_error(&out, "--shards needs a value");
}

#[test]
fn zero_shards_is_a_usage_error() {
    let out = repro(&["perf", "--shards", "0"]);
    assert_usage_error(&out, "--shards must be at least 1");
}

#[test]
fn unknown_option_is_a_usage_error() {
    let out = repro(&["--bogus"]);
    assert_usage_error(&out, "unknown option: --bogus");
}

#[test]
fn unknown_experiment_still_exits_2() {
    let out = repro(&["definitely-not-an-experiment"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown experiment"), "{err}");
}

#[test]
fn fig2_below_the_training_floor_runs() {
    // Below 400 events fig2's training lengths fall under their floor.
    let out = repro(&["fig2", "--events", "100"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("initial behavior"));
}

#[test]
fn fuzz_non_integer_iters_is_a_usage_error() {
    let out = repro(&["fuzz", "--iters", "lots"]);
    assert_usage_error(&out, "--iters needs an integer");
}

#[test]
fn fuzz_missing_flag_value_is_a_usage_error() {
    let out = repro(&["fuzz", "--corpus-dir"]);
    assert_usage_error(&out, "--corpus-dir needs a value");
}

#[test]
fn fuzz_zero_iters_is_a_usage_error() {
    let out = repro(&["fuzz", "--iters", "0"]);
    assert_usage_error(&out, "--iters must be at least 1");
}

#[test]
fn fuzz_unknown_option_is_a_usage_error() {
    let out = repro(&["fuzz", "--bogus"]);
    assert_usage_error(&out, "unknown fuzz option: --bogus");
}

#[test]
fn resilience_non_integer_events_is_a_usage_error() {
    let out = repro(&["resilience", "--events", "lots"]);
    assert_usage_error(&out, "--events needs an integer");
}

#[test]
fn resilience_missing_flag_value_is_a_usage_error() {
    let out = repro(&["resilience", "--out"]);
    assert_usage_error(&out, "--out needs a value");
}

#[test]
fn resilience_unknown_option_is_a_usage_error() {
    let out = repro(&["resilience", "--bogus"]);
    assert_usage_error(&out, "unknown resilience option: --bogus");
}

#[test]
fn observe_non_integer_seed_is_a_usage_error() {
    let out = repro(&["observe", "--seed", "lots"]);
    assert_usage_error(&out, "--seed needs an integer");
}

#[test]
fn observe_missing_flag_value_is_a_usage_error() {
    let out = repro(&["observe", "--metrics-out"]);
    assert_usage_error(&out, "--metrics-out needs a value");
}

#[test]
fn observe_unknown_benchmark_is_a_usage_error() {
    let out = repro(&["observe", "--bench", "nonesuch"]);
    assert_usage_error(&out, "unknown benchmark");
}

#[test]
fn observe_unknown_option_is_a_usage_error() {
    let out = repro(&["observe", "--bogus"]);
    assert_usage_error(&out, "unknown observe option: --bogus");
}

#[test]
fn serve_zero_queue_depth_is_a_usage_error() {
    let out = repro(&["serve", "--queue-depth", "0"]);
    assert_usage_error(&out, "--queue-depth must be at least 1");
}

#[test]
fn serve_unknown_chaos_profile_is_a_usage_error() {
    let out = repro(&["serve", "--chaos", "apocalyptic"]);
    assert_usage_error(&out, "apocalyptic");
}

#[test]
fn serve_conflicting_endpoints_are_a_usage_error() {
    let out = repro(&["serve", "--addr", "a:1", "--unix", "s.sock"]);
    assert_usage_error(&out, "--addr and --unix are mutually exclusive");
}

#[test]
fn serve_unknown_option_is_a_usage_error() {
    let out = repro(&["serve", "--bogus"]);
    assert_usage_error(&out, "unknown serve option: --bogus");
}

#[test]
fn load_zero_clients_is_a_usage_error() {
    let out = repro(&["load", "--clients", "0"]);
    assert_usage_error(&out, "--clients must be at least 1");
}

#[test]
fn load_missing_flag_value_is_a_usage_error() {
    let out = repro(&["load", "--seed"]);
    assert_usage_error(&out, "--seed needs a value");
}

#[test]
fn load_unknown_option_is_a_usage_error() {
    let out = repro(&["load", "--bogus"]);
    assert_usage_error(&out, "unknown load option: --bogus");
}

/// Kills the serve child if the test panics before its clean exit.
struct ServeGuard(std::process::Child);

impl Drop for ServeGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn serve_load_drain_roundtrip_over_the_real_binary() {
    let dir = std::env::temp_dir().join("rsc_repro_serve_e2e");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let port_file = dir.join("port");
    let bench_json = dir.join("BENCH_serve.json");
    let state = dir.join("state");

    let child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--checkpoint-dir",
            state.to_str().unwrap(),
            "--port-file",
            port_file.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("serve spawns");
    let mut guard = ServeGuard(child);

    // The daemon writes the bound address atomically once it listens.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let addr = loop {
        if let Ok(addr) = std::fs::read_to_string(&port_file) {
            break addr;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "serve never wrote {}",
            port_file.display()
        );
        std::thread::sleep(std::time::Duration::from_millis(25));
    };

    let out = repro(&[
        "load",
        "--addr",
        addr.trim(),
        "--clients",
        "2",
        "--tenants",
        "6",
        "--frames",
        "2",
        "--events",
        "200",
        "--seed",
        "7",
        "--out",
        bench_json.to_str().unwrap(),
        "--drain",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "load stdout: {stdout}");
    assert!(stdout.contains("frames sent"), "{stdout}");
    assert!(stdout.contains("drain:"), "{stdout}");
    let report = rsc_conformance::json::Json::parse(
        &std::fs::read_to_string(&bench_json).expect("BENCH_serve.json written"),
    )
    .expect("report parses");
    let get = |k: &str| report.get(k).and_then(rsc_conformance::json::Json::as_u64);
    assert_eq!(get("failed_requests"), Some(0), "{report}");
    assert_eq!(get("frames_acked"), Some(12), "{report}");
    assert_eq!(get("events_acked"), Some(2400), "{report}");
    let drain = report.get("drain").expect("drain section");
    assert_eq!(
        drain
            .get("failed")
            .and_then(rsc_conformance::json::Json::as_u64),
        Some(0),
        "{report}"
    );

    // The client-requested drain shuts the daemon down by itself, exit 0.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let status = loop {
        if let Some(status) = guard.0.try_wait().expect("try_wait") {
            break status;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "serve did not exit after the drain"
        );
        std::thread::sleep(std::time::Duration::from_millis(25));
    };
    assert!(status.success(), "serve exit: {status:?}");
    // Drained tenants persisted under the checkpoint dir.
    let records = std::fs::read_dir(&state).unwrap().count();
    assert!(records >= 6, "expected >= 6 tenant records, got {records}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fuzz_smoke_run_writes_corpus_artifacts_and_exits_zero() {
    let dir = std::env::temp_dir().join("rsc_repro_fuzz_e2e");
    std::fs::remove_dir_all(&dir).ok();
    let out = repro(&[
        "fuzz",
        "--iters",
        "10",
        "--seed",
        "42",
        "--events",
        "600",
        "--analytic-check",
        "--corpus-dir",
        dir.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    assert!(stdout.contains("coverage: baseline"), "{stdout}");
    assert!(dir.join("report.json").exists());
    assert!(dir.join("entry-000.json").exists());
    std::fs::remove_dir_all(&dir).ok();
}
