//! The `serve_mixed` workload: an in-process daemon behind the Unix-socket
//! front end, driven by a closed loop of two client connections.
//!
//! Each client submits its next job only after fetching the previous
//! result. Jobs cycle through three tenants and three kinds: generate s27
//! and compact s27 (tiny, dominated by durable state writes) and generate
//! ~s298 (compute-bound, preempted into checkpoint slices). Every result
//! must equal `run_direct` of its spec byte for byte.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

use limscan::harness::SnapshotStore;
use limscan::netlist::{bench_format, benchmarks};
use limscan::scan::program::parse_program;
use limscan::sim::{set_sim_threads, SeqFaultSim};
use limscan::{FaultList, ScanCircuit};
use limscan_serve::socket::{serve_with, SocketConfig};
use limscan_serve::{run_direct, JobKind, JobSpec, Json, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::flows::{bench_text, replay_setup};
use crate::stats::{cpu_seconds, host_ticks, median, quantile, steal_share, tail};
use crate::trace::{self_times, write_jsonl, Span, Tracer};
use crate::{work_dir, Args, Outcome};

/// Workload name on the command line.
pub const NAME: &str = "serve_mixed";

const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// The job rotation, as indices into [`Mix::specs`]: generate s27,
/// ~s298, compact s27, ~s298, ~s298. Compute-bound jobs are three fifths of
/// the mix, so the latency median falls inside them rather than on the
/// fsync-bound tiny jobs, whose latency follows the host's storage (the
/// report prints each kind's latencies separately).
const ROTATION: [usize; 5] = [0, 2, 1, 2, 2];
/// Longest wait for one reply, and for one job to finish, before the run
/// gives up and reports the failure instead of hanging.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
const JOB_TIMEOUT: Duration = Duration::from_secs(60);
/// Daemon starts timed for `setup_s`, half before and half after the loop.
const SETUP_REPS: usize = 60;
/// Finished jobs in the state directory every timed start recovers.
const SETUP_STATE_JOBS: usize = 100;
/// Jobs per `flow_s` unit of work.
const WINDOW_JOBS: f64 = 30.0;
/// Status polls back off geometrically (x1.25) from the first interval to
/// the last. Each sleep is jittered to 0.5-1.5 times the interval, so the
/// observed completion times do not snap to a fixed grid of poll instants.
const POLL_FIRST_US: f64 = 50.0;
const POLL_LAST_US: f64 = 1000.0;

/// One JSONL connection to the daemon.
struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    /// Connects, retrying without sleeping while the daemon is still
    /// binding its socket, so the wait ends as soon as it listens.
    fn connect(path: &Path) -> Result<Client, String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match UnixStream::connect(path) {
                Ok(stream) => {
                    stream
                        .set_read_timeout(Some(REPLY_TIMEOUT))
                        .map_err(|e| e.to_string())?;
                    let writer = stream.try_clone().map_err(|e| e.to_string())?;
                    return Ok(Client {
                        reader: BufReader::new(stream),
                        writer,
                    });
                }
                Err(e) if Instant::now() > deadline => {
                    return Err(format!("cannot connect to {}: {e}", path.display()))
                }
                Err(_) => thread::yield_now(),
            }
        }
    }

    fn call(&mut self, request: &Json) -> Result<Json, String> {
        let mut line = request.render();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        self.reader
            .read_line(&mut response)
            .map_err(|e| format!("receive: {e}"))?;
        Json::parse(response.trim_end()).map_err(|e| format!("bad response: {e}"))
    }
}

fn verb(name: &str, job: Option<u64>) -> Json {
    let mut members = vec![("verb".to_owned(), Json::str(name))];
    if let Some(id) = job {
        members.push(("job".to_owned(), Json::num(id)));
    }
    Json::Obj(members)
}

fn submit_request(spec: &JobSpec) -> Json {
    match spec.to_json() {
        Json::Obj(mut members) => {
            members.insert(0, ("verb".to_owned(), Json::str("submit")));
            Json::Obj(members)
        }
        _ => unreachable!("a spec serializes to an object"),
    }
}

fn is_ok(response: &Json) -> bool {
    response.get("ok").and_then(Json::as_bool) == Some(true)
}

/// A daemon on its own state directory and socket, served from a thread.
struct Daemon {
    dir: PathBuf,
    socket: PathBuf,
    thread: thread::JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    /// An empty state directory for daemon `tag`, made before any timing
    /// starts.
    fn prepare(tag: &str) -> Result<PathBuf, String> {
        let dir = work_dir().join(format!("serve-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// Starts a daemon on a directory from [`Daemon::prepare`].
    fn start(dir: PathBuf) -> Result<Daemon, String> {
        // A relative socket path keeps within the platform's short limit
        // however deep the checkout is.
        let socket = dir.join("d.sock");
        let server = Server::start(ServerConfig {
            workers: WORKERS,
            slice_checkpoints: 1,
            ..ServerConfig::new(dir.join("state"))
        })?;
        let path = socket.clone();
        let thread = thread::spawn(move || serve_with(server, &path, &SocketConfig::default()));
        Ok(Daemon {
            dir,
            socket,
            thread,
        })
    }

    /// Asks the daemon to shut down and joins it, leaving its directory
    /// in place. A daemon that does not take the request is left running
    /// rather than waited for; the process ends with the run.
    fn shutdown(self) -> (PathBuf, Result<(), String>) {
        let stopped = Client::connect(&self.socket)
            .and_then(|mut c| c.call(&verb("shutdown", None)))
            .and_then(|_| match self.thread.join() {
                Ok(Ok(())) => Ok(()),
                Ok(Err(e)) => Err(format!("daemon: {e}")),
                Err(_) => Err("daemon thread panicked".into()),
            });
        (self.dir, stopped)
    }

    /// Shuts the daemon down and removes its directory.
    fn stop(self) -> Result<(), String> {
        let (dir, stopped) = self.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        stopped
    }
}

/// The job mix with the expected result of every spec.
struct Mix {
    specs: Vec<JobSpec>,
    expected: Vec<String>,
}

impl Mix {
    fn new(seed: u64) -> Result<Mix, String> {
        // Wire numbers are JSON doubles, so the job seed folds in the low
        // 32 bits of the workload seed.
        let job_seed = JobSpec::default().seed ^ (seed & 0xffff_ffff);
        let generate_s27 = JobSpec {
            tenant: "t-small".into(),
            kind: JobKind::Generate,
            circuit: "s27".into(),
            seed: job_seed,
            ..JobSpec::default()
        };
        let s27_program = run_direct(&generate_s27)?;
        let compact_s27 = JobSpec {
            tenant: "t-compact".into(),
            kind: JobKind::Compact,
            program: Some(s27_program),
            ..generate_s27.clone()
        };
        let generate_s298 = JobSpec {
            tenant: "t-heavy".into(),
            circuit: "s298".into(),
            bench: Some(bench_text("s298")),
            ..generate_s27.clone()
        };
        let specs = vec![generate_s27, compact_s27, generate_s298];
        let expected = specs.iter().map(run_direct).collect::<Result<_, _>>()?;
        Ok(Mix { specs, expected })
    }

    /// Which spec client `c` submits as its `j`-th job; the seed picks the
    /// phase of the rotation.
    fn pick(seed: u64, c: usize, j: usize) -> usize {
        let phase = (seed % ROTATION.len() as u64) as usize;
        ROTATION[(phase + CLIENTS * j + c) % ROTATION.len()]
    }
}

/// One completed (or failed) job, seen from its client.
struct JobRecord {
    /// Index of the spec in the mix.
    kind: usize,
    ok: bool,
    problem: Option<String>,
    shed: bool,
    latency_ms: f64,
    queue_wait_ms: f64,
}

/// One client's closed loop until `deadline`, with spans per verb and per
/// job lifetime in `tr`.
fn client_loop(
    socket: &Path,
    mix: &Mix,
    seed: u64,
    c: usize,
    deadline: Instant,
    tr: &mut Tracer,
) -> Result<Vec<JobRecord>, String> {
    let mut client = Client::connect(socket)?;
    let mut rng = StdRng::seed_from_u64(seed ^ c as u64);
    let mut records = Vec::new();
    for j in 0.. {
        if Instant::now() >= deadline {
            break;
        }
        let k = Mix::pick(seed, c, j);
        let trace = ((c as u64) << 32) | j as u64;
        let submitted = Instant::now();
        tr.begin(trace, "serve.job");
        let response = tr.time(trace, "serve.submit", || {
            client.call(&submit_request(&mix.specs[k]))
        })?;
        let mut record = JobRecord {
            kind: k,
            ok: false,
            problem: None,
            shed: response.get("code").and_then(Json::as_str) == Some("overloaded"),
            latency_ms: 0.0,
            queue_wait_ms: 0.0,
        };
        if let Some(id) = response
            .get("job")
            .and_then(Json::as_u64)
            .filter(|_| is_ok(&response))
        {
            let mut left_queue = None;
            let mut poll_us = POLL_FIRST_US;
            let state = loop {
                let status = tr.time(trace, "serve.status", || {
                    client.call(&verb("status", Some(id)))
                })?;
                let state = status
                    .get("state")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_owned();
                if state != "queued" && left_queue.is_none() {
                    left_queue = Some(submitted.elapsed());
                }
                if matches!(
                    state.as_str(),
                    "complete" | "failed" | "cancelled" | "unknown"
                ) {
                    break state;
                }
                if submitted.elapsed() > JOB_TIMEOUT {
                    break format!("{state} after {JOB_TIMEOUT:?}");
                }
                let jitter: f64 = rng.gen_range(0.5..1.5);
                thread::sleep(Duration::from_secs_f64(poll_us * jitter / 1e6));
                poll_us = (poll_us * 1.25).min(POLL_LAST_US);
            };
            let result = tr.time(trace, "serve.result", || {
                client.call(&verb("result", Some(id)))
            })?;
            let text = result.get("result").and_then(Json::as_str);
            record.ok = state == "complete" && text == Some(mix.expected[k].as_str());
            if !record.ok {
                record.problem = Some(format!(
                    "job {id} ({} {}): state {state}, result {}",
                    mix.specs[k].kind.tag(),
                    mix.specs[k].circuit,
                    if text.is_some() {
                        "differs from run_direct"
                    } else {
                        "missing"
                    }
                ));
            }
            record.queue_wait_ms = left_queue.unwrap_or_default().as_secs_f64() * 1e3;
        } else {
            record.problem = Some(format!("submit refused: {}", response.render()));
        }
        tr.end();
        record.latency_ms = submitted.elapsed().as_secs_f64() * 1e3;
        records.push(record);
    }
    Ok(records)
}

/// One client's jobs and spans.
type ClientRun = (Vec<JobRecord>, Vec<Span>);

/// What one closed loop measured.
struct LoopRun {
    records: Vec<JobRecord>,
    spans: Vec<Span>,
    /// Wall seconds from the first submit to the last result.
    wall: f64,
    /// CPU seconds of the whole process (daemon and clients) meanwhile.
    cpu: f64,
    /// Share of the host's CPU time stolen by the hypervisor meanwhile,
    /// for the report only.
    steal: f64,
}

/// Runs the closed loop for `window` on `daemon`; with `traced`, every
/// client records spans per verb and per job lifetime.
fn closed_loop(
    daemon: &Daemon,
    mix: &Mix,
    seed: u64,
    window: Duration,
    traced: bool,
) -> Result<LoopRun, String> {
    let (cpu, host) = (cpu_seconds(), host_ticks());
    let epoch = Instant::now();
    let deadline = epoch + window;
    let results: Vec<Result<ClientRun, String>> = thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut tr = if traced {
                        Tracer::new(epoch, (c as u64 + 1) << 40)
                    } else {
                        Tracer::off()
                    };
                    let records = client_loop(&daemon.socket, mix, seed, c, deadline, &mut tr)?;
                    Ok((records, tr.into_spans()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall = epoch.elapsed().as_secs_f64();
    let mut run = LoopRun {
        records: Vec::new(),
        spans: Vec::new(),
        wall,
        cpu: cpu_seconds() - cpu,
        steal: steal_share(host, host_ticks()),
    };
    for r in results {
        let (records, spans) = r?;
        run.records.extend(records);
        run.spans.extend(spans);
    }
    Ok(run)
}

/// Runs [`SETUP_STATE_JOBS`] tiny jobs (generate and compact s27 in turn)
/// to completion on a daemon of its own and checks every result. Returns
/// that daemon's directory, whose state every timed start recovers.
fn setup_state(mix: &Mix, out: &mut Outcome) -> Result<PathBuf, String> {
    let daemon = Daemon::start(Daemon::prepare("setup-state")?)?;
    let jobs = (|| {
        let mut client = Client::connect(&daemon.socket)?;
        let mut ids = Vec::new();
        for j in 0..SETUP_STATE_JOBS {
            let k = j % 2;
            let response = client.call(&submit_request(&mix.specs[k]))?;
            match response.get("job").and_then(Json::as_u64) {
                Some(id) if is_ok(&response) => ids.push((id, k)),
                _ => return Err(format!("submit refused: {}", response.render())),
            }
        }
        for &(id, k) in &ids {
            let started = Instant::now();
            while client
                .call(&verb("status", Some(id)))?
                .get("state")
                .and_then(Json::as_str)
                .is_some_and(|state| !matches!(state, "complete" | "failed" | "cancelled"))
            {
                if started.elapsed() > JOB_TIMEOUT {
                    return Err(format!("state-directory job {id} did not finish"));
                }
                thread::sleep(Duration::from_millis(1));
            }
            let result = client.call(&verb("result", Some(id)))?;
            out.attempted += 1;
            if result.get("result").and_then(Json::as_str) != Some(mix.expected[k].as_str()) {
                out.fail(format!(
                    "state-directory job {id} ({} s27): result differs from run_direct",
                    mix.specs[k].kind.tag()
                ));
            }
        }
        Ok(())
    })();
    let (dir, stopped) = daemon.shutdown();
    jobs.and(stopped)?;
    Ok(dir)
}

/// Times `reps` daemon restarts over the finished jobs in `dir`, each from
/// `Server::start` to the first answered request (`list`). Every job in it
/// is finished, so a start and shutdown leave it as it was.
fn setup_samples(dir: &Path, reps: usize) -> Result<Vec<f64>, String> {
    let mut samples = Vec::new();
    for _ in 0..reps {
        let start = Instant::now();
        let daemon = Daemon::start(dir.to_path_buf())?;
        let mut client = Client::connect(&daemon.socket)?;
        let response = client.call(&verb("list", None))?;
        samples.push(start.elapsed().as_secs_f64());
        drop(client);
        daemon.shutdown().1?;
        let recovered = response
            .get("jobs")
            .and_then(Json::as_arr)
            .map(<[Json]>::len);
        if !is_ok(&response) || recovered != Some(SETUP_STATE_JOBS) {
            return Err(format!(
                "restart recovered {recovered:?} of {SETUP_STATE_JOBS} jobs: {}",
                response.render()
            ));
        }
    }
    Ok(samples)
}

/// Oracle-certified detections and total cycles of the mix's programs.
fn program_quality(mix: &Mix) -> Result<(usize, usize), String> {
    let mut detected = 0;
    let mut cycles = 0;
    for (spec, text) in mix.specs.iter().zip(&mix.expected) {
        let sequence = parse_program(text).map_err(|e| e.to_string())?;
        let circuit = spec.resolve_circuit()?;
        let scan = ScanCircuit::insert_chains(&circuit, spec.chains);
        let faults = FaultList::collapsed(scan.circuit()).sample(spec.max_faults);
        let mut oracle = SeqFaultSim::new(scan.circuit(), &faults);
        oracle.extend_reference(&sequence);
        detected += oracle.detected_count();
        cycles += sequence.len();
    }
    Ok((detected, cycles))
}

/// Runs the workload in the mode the arguments select.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_inner(args, &mut out) {
        out.attempted += 1;
        out.fail(e);
    }
    out
}

fn tally(records: &[JobRecord], out: &mut Outcome) {
    out.attempted += records.len() as u64;
    for r in records {
        if let Some(problem) = &r.problem {
            out.fail(problem.clone());
        }
    }
}

fn run_inner(args: &Args, out: &mut Outcome) -> Result<(), String> {
    set_sim_threads(Some(1));
    let mix = Mix::new(args.seed)?;
    out.note(format!(
        "flowbench {NAME} seed {}: {WORKERS} workers x 1 sim thread, slice_checkpoints 1, \
         closed loop of {CLIENTS} clients over {} (tenant/kind/circuit)",
        args.seed,
        mix.specs
            .iter()
            .map(|s| format!("{}/{}/{}", s.tenant, s.kind.tag(), s.circuit))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    if args.trace {
        return traced(args, &mix, out);
    }

    // A daemon start recovers a state directory of finished jobs. Starts
    // are timed on both sides of the loop, so the samples are not all
    // taken in one slice of the run.
    let state = setup_state(&mix, out)?;
    let mut setups = setup_samples(&state, SETUP_REPS / 2)?;
    let daemon = Daemon::start(Daemon::prepare("main")?)?;
    let run = closed_loop(&daemon, &mix, args.seed, args.seconds, false);
    daemon.stop()?;
    let run = run?;
    setups.extend(setup_samples(&state, SETUP_REPS / 2)?);
    let _ = std::fs::remove_dir_all(&state);
    let setup_s = median(&setups);
    tally(&run.records, out);

    // Latency and throughput are wall-clock figures; the host's steal over
    // the loop is printed beside them. `flow_s` is the process's CPU time
    // per 30 completed jobs.
    let records = &run.records;
    let latencies: Vec<f64> = records
        .iter()
        .filter(|r| r.ok)
        .map(|r| r.latency_ms)
        .collect();
    let flow_s = run.cpu / latencies.len().max(1) as f64 * WINDOW_JOBS;
    let (q, tail_ms) = tail(&latencies);
    let jobs_per_s = latencies.len() as f64 / run.wall;
    let (detected, cycles) = program_quality(&mix)?;
    out.note(format!(
        "flow_s          {flow_s:.4} CPU s per {WINDOW_JOBS} jobs  ({:.2} CPU s over {:.2} s wall; host steal {:.1}%)",
        run.cpu,
        run.wall,
        100.0 * run.steal
    ));
    out.note(format!(
        "setup_s         {setup_s:.6} s  (daemon start over {SETUP_STATE_JOBS} finished jobs to first answered request, median of {}; p10 {:.6}, p90 {:.6})",
        setups.len(),
        quantile(&setups, 0.1),
        quantile(&setups, 0.9)
    ));
    out.note(format!(
        "job latency     p50 {:.2} ms, p{:.0} {tail_ms:.2} ms over {} jobs; {jobs_per_s:.1} jobs/s (wall clock; host steal {:.1}%)",
        median(&latencies),
        q * 100.0,
        latencies.len(),
        100.0 * run.steal
    ));
    for (k, spec) in mix.specs.iter().enumerate() {
        let of_kind: Vec<f64> = records
            .iter()
            .filter(|r| r.ok && r.kind == k)
            .map(|r| r.latency_ms)
            .collect();
        let (q, t) = tail(&of_kind);
        out.note(format!(
            "  {} {}: p50 {:.2} ms, p{:.0} {t:.2} ms over {} jobs",
            spec.kind.tag(),
            spec.circuit,
            median(&of_kind),
            q * 100.0,
            of_kind.len()
        ));
    }
    out.note(format!(
        "program_cycles  {cycles}, faults_detected {detected} (the mix's three programs)"
    ));
    out.metrics.insert("flow_s", flow_s);
    out.metrics.insert("setup_s", setup_s);
    out.metrics.insert("program_cycles", cycles as f64);
    out.metrics.insert("faults_detected", detected as f64);
    out.metrics.insert("job_p50_ms", median(&latencies));
    out.metrics.insert("job_p95_ms", tail_ms);
    out.metrics.insert("jobs_per_s", jobs_per_s);
    Ok(())
}

/// Median `SnapshotStore::save_text` time of a job-sized payload, on the
/// filesystem that holds the daemon state.
fn save_ms(payload: &str) -> Result<f64, String> {
    let dir = work_dir().join(format!("save-{}", std::process::id()));
    let store = SnapshotStore::new(&dir);
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 10 || (samples.len() < 200 && start.elapsed() < Duration::from_secs(1)) {
        let t = Instant::now();
        store
            .save_text("result.txt", payload)
            .map_err(|e| e.to_string())?;
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(median(&samples))
}

fn traced(args: &Args, mix: &Mix, out: &mut Outcome) -> Result<(), String> {
    // Half the window untraced, half traced, on one daemon.
    let half = args.seconds / 2;
    let daemon = Daemon::start(Daemon::prepare("trace")?)?;
    let plain = closed_loop(&daemon, mix, args.seed, half, false);
    let traced = closed_loop(&daemon, mix, args.seed, half, true);
    let metrics = Client::connect(&daemon.socket).and_then(|mut c| c.call(&verb("metrics", None)));
    daemon.stop()?;
    let plain = plain?.records;
    let LoopRun {
        records, mut spans, ..
    } = traced?;
    let metrics = metrics?;
    tally(&plain, out);
    tally(&records, out);

    // Per-verb client latencies and queue wait.
    let per = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.secs() * 1e3)
            .collect()
    };
    for (span, metric) in [
        ("serve.submit", "serve.submit_ms"),
        ("serve.status", "serve.status_ms"),
        ("serve.result", "serve.result_ms"),
    ] {
        let samples = per(span);
        out.note(format!(
            "{metric:<22} {:>9.4} ms  (median of {} calls)",
            median(&samples),
            samples.len()
        ));
        out.metrics.insert(metric, median(&samples));
    }
    let waits: Vec<f64> = records.iter().map(|r| r.queue_wait_ms).collect();
    out.note(format!(
        "serve.queue_wait_ms    {:>9.4} ms  (median of {} jobs)",
        median(&waits),
        waits.len()
    ));
    out.metrics.insert("serve.queue_wait_ms", median(&waits));
    let shed = plain.iter().chain(&records).filter(|r| r.shed).count();
    out.metrics.insert("serve.shed", shed as f64);

    // Slices and the library's own counters, from the `metrics` verb.
    let jobs = metrics
        .get("jobs")
        .and_then(Json::as_arr)
        .unwrap_or_default();
    let slices: u64 = jobs
        .iter()
        .filter_map(|j| j.get("slices").and_then(Json::as_u64))
        .sum();
    let slices_per_job = slices as f64 / jobs.len().max(1) as f64;
    out.note(format!(
        "serve.slices_per_job = {slices} slices / {} jobs = {slices_per_job:.3}",
        jobs.len()
    ));
    out.metrics.insert("serve.slices_per_job", slices_per_job);
    for (counter, metric) in [
        ("vectors_simulated", "sim.vectors_simulated"),
        ("batches_simulated", "sim.batches"),
        ("trials_attempted", "compact.trials_attempted"),
        ("trials_committed", "compact.trials_committed"),
        ("checkpoint_hits", "compact.checkpoint_hits"),
        ("restoration_probes", "compact.restoration_probes"),
    ] {
        let total: u64 = jobs
            .iter()
            .filter_map(|j| {
                j.get("totals")
                    .and_then(|t| t.get(counter))
                    .and_then(Json::as_u64)
            })
            .sum();
        out.metrics.insert(metric, total as f64);
    }
    if out.metrics["sim.vectors_simulated"] == 0.0 {
        out.fail(
            "daemon obs counter vectors_simulated reads 0: is limscan built with `trace`?".into(),
        );
    }
    let attempted = out.metrics["compact.trials_attempted"];
    let committed = out.metrics["compact.trials_committed"];
    let ratio = if attempted > 0.0 {
        committed / attempted
    } else {
        0.0
    };
    out.note(format!(
        "compact.trial_commit_ratio = {committed} committed / {attempted} attempted = {ratio:.4}"
    ));
    out.metrics.insert("compact.trial_commit_ratio", ratio);

    let save = save_ms(&mix.expected[2])?;
    out.note(format!("harness.save_ms        {save:>9.4} ms  (median SnapshotStore::save_text of the ~s298 result)"));
    out.metrics.insert("harness.save_ms", save);

    // Every job parses and sets up its netlist: replay that per circuit.
    let mut tr = Tracer::new(Instant::now(), 1);
    let mut targets = 0;
    for spec in &mix.specs {
        if spec.kind == JobKind::Compact {
            continue;
        }
        let bench = spec
            .bench
            .clone()
            .unwrap_or_else(|| bench_format::write(&benchmarks::s27()));
        let (_, scan) = replay_setup(&mut tr, 0, &spec.circuit, &bench, false)?;
        let faults = tr.time(0, "fault.collapse", || {
            FaultList::collapsed(scan.circuit()).sample(spec.max_faults)
        });
        targets += faults.len();
    }
    out.metrics.insert("fault.targets", targets as f64);
    let setup_spans = tr.into_spans();
    let selfs = self_times(&setup_spans);
    for (span, metric) in [
        ("netlist.parse", "netlist.parse_s"),
        ("lint.gate", "lint.gate_s"),
        ("scan.insert", "scan.insert_s"),
        ("fault.collapse", "fault.collapse_s"),
    ] {
        let s = selfs.get(span).copied().unwrap_or(0.0);
        out.note(format!(
            "{metric:<22} {:>9.4} ms  (one job's setup per generate circuit)",
            s * 1e3
        ));
        out.metrics.insert(metric, s);
    }

    let mean =
        |r: &[JobRecord]| r.iter().map(|r| r.latency_ms).sum::<f64>() / r.len().max(1) as f64;
    let overhead = mean(&records) / mean(&plain) - 1.0;
    out.note(format!(
        "trace_overhead_frac {overhead:+.4} (mean job latency, traced {} jobs vs untraced {})",
        records.len(),
        plain.len()
    ));
    out.metrics.insert("trace.overhead_frac", overhead);
    out.metrics.insert("sim.threads", 1.0);
    spans.extend(setup_spans);
    let path = work_dir().join(format!("trace-{NAME}-{}.jsonl", std::process::id()));
    if let Err(e) = write_jsonl(&path, &spans) {
        out.note(format!("could not write {}: {e}", path.display()));
    }
    Ok(())
}
