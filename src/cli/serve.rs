//! `stitch serve` (the long-lived job daemon) and `stitch serve-batch`
//! (one batch of jobs on the shared scheduler).

use std::io::{BufRead, BufReader, Write};
use std::os::unix::fs::FileTypeExt;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use stitch_sched::{DrainPolicy, JobStatus};
use stitch_serve::{BreakerConfig, RateLimit, ServeConfig, ServeDaemon, TenantPolicy};

use super::sinks::{trace_handle, write_file, write_trace};
use super::{Command, Failure};

/// Drives one daemon session: requests are read line-by-line from
/// `input` and handed to the daemon; every broadcast event (this
/// session's responses *and* all job lifecycle events) streams to
/// `out` as `event=... key=value` lines. On EOF, `drain_on_eof`
/// (set for the primary stdin session, `None` for socket clients)
/// gracefully drains the daemon before returning.
///
/// Pure in its endpoints, so tests drive it with in-memory buffers.
pub fn serve_session<R, W>(
    daemon: &ServeDaemon,
    input: R,
    out: W,
    drain_on_eof: Option<DrainPolicy>,
) -> std::io::Result<()>
where
    R: BufRead,
    W: Write + Send,
{
    let rx = daemon.subscribe();
    let done = AtomicBool::new(false);
    let done = &done;
    std::thread::scope(|s| {
        let pump = s.spawn(move || -> std::io::Result<()> {
            let mut out = out;
            loop {
                match rx.recv_timeout(Duration::from_millis(25)) {
                    Ok(e) => {
                        writeln!(out, "{}", e.to_line())?;
                        out.flush()?;
                    }
                    Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                        if done.load(Ordering::Acquire) {
                            // the input side has finished (and drained);
                            // everything left is already in the channel
                            for e in rx.try_iter() {
                                writeln!(out, "{}", e.to_line())?;
                            }
                            out.flush()?;
                            return Ok(());
                        }
                    }
                    Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return Ok(()),
                }
            }
        });
        for line in input.lines() {
            let Ok(line) = line else { break };
            daemon.handle_line(&line);
        }
        if let Some(policy) = drain_on_eof {
            daemon.drain(policy);
        }
        done.store(true, Ordering::Release);
        pump.join().unwrap_or(Ok(()))
    })
}

/// Binds the daemon's Unix socket at `path`. A socket that no daemon
/// answers on any more is replaced; anything else there (a regular file,
/// a directory, a live daemon's socket) is an error and is left intact.
fn bind_socket(path: &Path) -> std::io::Result<UnixListener> {
    if path.symlink_metadata().is_ok() {
        let refuse = |why: &str| std::io::Error::new(std::io::ErrorKind::AlreadyExists, why);
        if !is_socket(path) {
            return Err(refuse("the path exists and is not a socket"));
        }
        if UnixStream::connect(path).is_ok() {
            return Err(refuse("another daemon is listening on it"));
        }
        std::fs::remove_file(path)?;
    }
    UnixListener::bind(path)
}

/// Whether `path` is a Unix socket (not following symlinks).
fn is_socket(path: &Path) -> bool {
    path.symlink_metadata()
        .is_ok_and(|m| m.file_type().is_socket())
}

/// Runs a parsed [`Command::Serve`]. Stdout carries the event stream, so
/// every note goes to stderr.
pub(super) fn run_serve(cmd: Command) -> Result<(), Failure> {
    let Command::Serve {
        workers,
        budget_mb,
        max_pending,
        watchdog_ms,
        tenant_jobs,
        rate_burst,
        rate_per_sec,
        tenant_cap_mb,
        breaker_threshold,
        drain,
        socket,
        trace_out,
        reports_dir,
    } = cmd
    else {
        unreachable!("run_serve takes Command::Serve")
    };
    let trace = trace_handle(trace_out.is_some() || reports_dir.is_some());
    let daemon = Arc::new(ServeDaemon::new(ServeConfig {
        workers,
        memory_budget: budget_mb << 20,
        max_pending,
        device: None,
        trace: trace.clone(),
        default_watchdog: watchdog_ms.map(Duration::from_millis),
        tenant_policy: TenantPolicy {
            max_in_flight: tenant_jobs,
            rate: rate_burst.map(|burst| RateLimit {
                burst,
                per_sec: rate_per_sec,
            }),
            mem_cap: tenant_cap_mb.map(|mb| mb << 20),
        },
        breaker: BreakerConfig {
            threshold: breaker_threshold,
            ..BreakerConfig::default()
        },
        reports_dir,
    }));
    if let Some(path) = &socket {
        let listener = bind_socket(path)
            .map_err(|e| Failure::input(format!("cannot bind {}: {e}", path.display())))?;
        eprintln!("serve: listening on {}", path.display());
        let d = Arc::clone(&daemon);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { continue };
                let d = Arc::clone(&d);
                std::thread::spawn(move || {
                    let Ok(reader) = stream.try_clone() else {
                        return;
                    };
                    // socket clients never drain the daemon; only stdin
                    // EOF shuts it down
                    let _ = serve_session(&d, BufReader::new(reader), stream, None);
                });
            }
        });
    }
    eprintln!(
        "serve: {workers} worker(s), {budget_mb} MB budget, {max_pending} pending max; \
         EOF drains ({drain:?})"
    );
    let session = serve_session(
        &daemon,
        BufReader::new(std::io::stdin()),
        std::io::stdout(),
        Some(drain),
    );
    if let Some(path) = &trace_out {
        write_trace(path, &trace)?;
        eprintln!("merged trace -> {}", path.display());
    }
    // unlink our socket on exit, but never whatever replaced it
    if let Some(path) = socket.filter(|p| is_socket(p)) {
        let _ = std::fs::remove_file(path);
    }
    session.map_err(|e| Failure::input(format!("serve session: {e}")))
}

/// Runs a parsed [`Command::ServeBatch`]; exits 2 when any job did not
/// complete or any line was rejected.
pub(super) fn run_batch(cmd: Command) -> Result<(), Failure> {
    let Command::ServeBatch {
        jobs,
        workers,
        budget_mb,
        stream_slots,
        trace_out,
        reports_dir,
    } = cmd
    else {
        unreachable!("run_batch takes Command::ServeBatch")
    };
    let text = std::fs::read_to_string(&jobs)
        .map_err(|e| Failure::input(format!("cannot read job file {}: {e}", jobs.display())))?;
    let trace = trace_handle(trace_out.is_some() || reports_dir.is_some());
    println!("serve-batch: {workers} worker(s), {budget_mb} MB budget");
    // lenient parse (shared with the serve daemon's wire parser): a
    // malformed line becomes a per-line error in the report and the rest
    // of the batch still runs
    let report = stitch_sched::run_batch_text(
        &text,
        &stitch_sched::BatchOptions {
            workers,
            memory_budget: budget_mb << 20,
            stream_slots,
            device: None,
            trace: trace.clone(),
        },
    )
    .map_err(|e| Failure::input(format!("{}: {e}", jobs.display())))?;
    for err in &report.parse_errors {
        println!("  {}: {err}", jobs.display());
    }
    for (name, why) in &report.rejected {
        println!("  {name:<16} rejected: {why}");
    }
    let mut unfinished = report.rejected.len() + report.parse_errors.len();
    for out in &report.outcomes {
        let status = match &out.status {
            JobStatus::Completed => "completed".to_string(),
            other => {
                unfinished += 1;
                format!("{other:?}")
            }
        };
        println!("  {:<16} {status:<12} {:>8.2?}", out.name, out.elapsed);
    }
    println!(
        "batch done in {:.2?}; memory high water {:.1} MB of {budget_mb} MB",
        report.elapsed,
        report.high_water as f64 / (1 << 20) as f64
    );
    if let Some(dir) = &reports_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| Failure::input(format!("creating {}: {e}", dir.display())))?;
        for out in &report.outcomes {
            if let Some(r) = &out.report {
                let path = dir.join(format!("report-{}.json", out.name));
                write_file(&path, r.to_json(), "run report")?;
            }
        }
        println!("per-job run reports -> {}", dir.display());
    }
    if let Some(path) = &trace_out {
        write_trace(path, &trace)?;
        println!("merged trace -> {}", path.display());
    }
    match unfinished {
        0 => Ok(()),
        n => Err(Failure::aborted(format!(
            "{n} job(s) or line(s) did not complete"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("stitch_cli_serve_{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn bind_socket_refuses_a_regular_file_and_leaves_it_intact() {
        let dir = scratch("file");
        let path = dir.join("s.sock");
        std::fs::write(&path, b"precious").unwrap();
        assert!(bind_socket(&path).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"precious");
        assert!(bind_socket(&dir).is_err(), "a directory is refused too");
        assert!(dir.is_dir());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bind_socket_replaces_a_stale_socket_but_not_a_live_one() {
        let dir = scratch("socket");
        let path = dir.join("s.sock");
        drop(UnixListener::bind(&path).unwrap()); // leaves a stale socket file
        assert!(is_socket(&path));
        let live = bind_socket(&path).expect("stale socket is replaced");
        assert!(
            bind_socket(&path).is_err(),
            "a live daemon keeps its socket"
        );
        drop(live);
        std::fs::remove_dir_all(&dir).ok();
    }
}
