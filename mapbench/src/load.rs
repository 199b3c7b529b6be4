//! Load generator for `mmm-serve`.
//!
//! One process, two threads, two connections:
//!
//! * `interactive` — open loop. Read `i` is *due* at a seeded Poisson
//!   arrival time; its latency runs from that due time to its `REC` frame,
//!   so a late generator cannot hide queueing. How late each send was is
//!   kept as the generator lag.
//! * `bulk` — closed loop. It keeps a fixed window of reads in flight,
//!   sending one more for each `REC`, until the interactive stream is done.
//!
//! `REC` frames arrive in submission order per tenant, so the k-th frame
//! answers the k-th read sent on that connection.

use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use manymap::serve::{encode_read, read_frame, read_frame_poll, write_frame, Frame, FramePoll, Op};
use mmm_seq::SeqRecord;

use crate::inputs::mix;
use crate::stats::{median, percentile};

/// Longest a connection may stay silent before the run is failed.
const STALL: Duration = Duration::from_secs(60);

/// What one tenant saw.
#[derive(Default)]
pub struct TenantLog {
    /// Reads sent, in order (indexes into the tenant's read list).
    pub sent: usize,
    /// `REC` payloads, in order.
    pub recs: Vec<String>,
    /// HELLO → OK round trip.
    pub admit_ms: f64,
    pub refused: bool,
    /// Interactive: due → REC per read. Bulk: empty.
    pub latency_ms: Vec<f64>,
    /// Interactive: due → actual send per read.
    pub lag_ms: Vec<f64>,
    /// Interactive: each read's due time. Bulk: each REC's arrival. Both in
    /// seconds since the session started.
    pub at_s: Vec<f64>,
    /// Session start → last REC.
    pub span_s: f64,
}

pub struct LoadResult {
    pub interactive: TenantLog,
    pub bulk: TenantLog,
}

/// Connect to the daemon, retrying until its socket accepts or `limit`
/// passes.
pub fn connect(socket: &Path, limit: Duration) -> Result<UnixStream, String> {
    let deadline = Instant::now() + limit;
    loop {
        match UnixStream::connect(socket) {
            Ok(s) => return Ok(s),
            Err(e) if Instant::now() >= deadline => {
                return Err(format!("{}: {e}", socket.display()))
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// Open a tenant session; `Ok(None)` when the daemon refuses it.
pub fn hello(stream: &mut UnixStream, tenant: &str) -> Result<Option<f64>, String> {
    let t0 = Instant::now();
    write_frame(stream, Op::Hello, tenant.as_bytes()).map_err(|e| format!("HELLO: {e}"))?;
    match read_frame(stream).map_err(|e| format!("HELLO reply: {e}"))? {
        Some(Frame { op: Op::Ok, .. }) => Ok(Some(t0.elapsed().as_secs_f64() * 1e3)),
        Some(Frame { op: Op::Err, .. }) => Ok(None),
        other => Err(format!("unexpected HELLO reply {other:?}")),
    }
}

/// One admin exchange (`STATS`, `DRAIN`) on a fresh connection.
pub fn admin(socket: &Path, op: Op) -> Result<String, String> {
    let mut s = connect(socket, Duration::from_secs(5))?;
    write_frame(&mut s, op, b"").map_err(|e| format!("{op:?}: {e}"))?;
    match read_frame(&mut s).map_err(|e| format!("{op:?} reply: {e}"))? {
        Some(f) if f.op != Op::Err => Ok(f.text()),
        other => Err(format!("unexpected {op:?} reply {other:?}")),
    }
}

fn send_read(s: &mut UnixStream, r: &SeqRecord) -> Result<(), String> {
    write_frame(s, Op::Read, &encode_read(&r.name, &r.seq, b"")).map_err(|e| format!("READ: {e}"))
}

/// Seeded Poisson arrival offsets (seconds) for `n` reads at `rate`/s.
pub fn arrivals(n: usize, rate: f64, seed: u64) -> Vec<f64> {
    let mut t = 0.0;
    (0..n)
        .map(|i| {
            let u = (mix(seed, i as u64) >> 11) as f64 / (1u64 << 53) as f64;
            t += -(1.0 - u).ln() / rate;
            t
        })
        .collect()
}

/// Drive both tenants against the daemon at `socket`.
pub fn run(
    socket: &Path,
    interactive: &[SeqRecord],
    rate: f64,
    bulk: &[SeqRecord],
    window: usize,
    seed: u64,
) -> Result<LoadResult, String> {
    let mut is = connect(socket, Duration::from_secs(20))?;
    let mut bs = connect(socket, Duration::from_secs(20))?;
    let mut ilog = TenantLog::default();
    let mut blog = TenantLog::default();
    match hello(&mut is, "interactive")? {
        Some(ms) => ilog.admit_ms = ms,
        None => ilog.refused = true,
    }
    match hello(&mut bs, "bulk")? {
        Some(ms) => blog.admit_ms = ms,
        None => blog.refused = true,
    }
    if ilog.refused || blog.refused {
        return Ok(LoadResult {
            interactive: ilog,
            bulk: blog,
        });
    }
    let due = arrivals(interactive.len(), rate, seed);
    let done = AtomicBool::new(false);
    let start = Instant::now();
    std::thread::scope(|s| {
        let bulk_thread = s.spawn(|| bulk_loop(&mut bs, bulk, window, &done, start, &mut blog));
        let inter = interactive_loop(&mut is, interactive, &due, start, &mut ilog);
        done.store(true, Ordering::Release);
        let bulk = bulk_thread
            .join()
            .unwrap_or(Err("bulk thread panicked".into()));
        inter.and(bulk)
    })?;
    Ok(LoadResult {
        interactive: ilog,
        bulk: blog,
    })
}

fn interactive_loop(
    s: &mut UnixStream,
    reads: &[SeqRecord],
    due: &[f64],
    start: Instant,
    log: &mut TenantLog,
) -> Result<(), String> {
    log.at_s = due.to_vec();
    let mut last_frame = Instant::now();
    let mut end_sent = false;
    loop {
        let now = start.elapsed().as_secs_f64();
        let wait = if log.sent < reads.len() {
            let d = due[log.sent];
            if now >= d {
                send_read(s, &reads[log.sent])?;
                log.lag_ms.push((start.elapsed().as_secs_f64() - d) * 1e3);
                log.sent += 1;
                continue;
            }
            Duration::from_secs_f64(d - now)
        } else {
            if !end_sent {
                write_frame(s, Op::End, b"").map_err(|e| format!("END: {e}"))?;
                end_sent = true;
            }
            Duration::from_millis(50)
        };
        s.set_read_timeout(Some(wait.max(Duration::from_micros(200))))
            .map_err(|e| e.to_string())?;
        match read_frame_poll(s).map_err(|e| format!("interactive: {e}"))? {
            FramePoll::Frame(Frame {
                op: Op::Rec,
                payload,
            }) => {
                let k = log.recs.len();
                if k >= log.sent {
                    return Err("interactive: REC for a read never sent".into());
                }
                let t = start.elapsed().as_secs_f64();
                log.latency_ms.push((t - due[k]) * 1e3);
                log.span_s = t;
                log.recs
                    .push(String::from_utf8_lossy(&payload).into_owned());
                last_frame = Instant::now();
            }
            FramePoll::Frame(Frame { op: Op::Done, .. }) => return Ok(()),
            FramePoll::Frame(f) => return Err(format!("interactive: unexpected {:?}", f.op)),
            FramePoll::TimedOut if last_frame.elapsed() > STALL => {
                return Err("interactive: daemon stalled".into())
            }
            FramePoll::TimedOut => {}
            FramePoll::Eof => return Err("interactive: connection closed before DONE".into()),
        }
    }
}

fn bulk_loop(
    s: &mut UnixStream,
    reads: &[SeqRecord],
    window: usize,
    stop: &AtomicBool,
    start: Instant,
    log: &mut TenantLog,
) -> Result<(), String> {
    let mut last_frame = Instant::now();
    let mut end_sent = false;
    s.set_read_timeout(Some(Duration::from_millis(20)))
        .map_err(|e| e.to_string())?;
    while log.sent < window.min(reads.len()) {
        send_read(s, &reads[log.sent])?;
        log.sent += 1;
    }
    loop {
        if !end_sent && (stop.load(Ordering::Acquire) || log.sent == reads.len()) {
            write_frame(s, Op::End, b"").map_err(|e| format!("END: {e}"))?;
            end_sent = true;
        }
        match read_frame_poll(s).map_err(|e| format!("bulk: {e}"))? {
            FramePoll::Frame(Frame {
                op: Op::Rec,
                payload,
            }) => {
                log.recs
                    .push(String::from_utf8_lossy(&payload).into_owned());
                log.span_s = start.elapsed().as_secs_f64();
                log.at_s.push(log.span_s);
                last_frame = Instant::now();
                if !end_sent && log.sent < reads.len() {
                    send_read(s, &reads[log.sent])?;
                    log.sent += 1;
                }
            }
            FramePoll::Frame(Frame { op: Op::Done, .. }) => return Ok(()),
            FramePoll::Frame(f) => return Err(format!("bulk: unexpected {:?}", f.op)),
            FramePoll::TimedOut if last_frame.elapsed() > STALL => {
                return Err("bulk: daemon stalled".into())
            }
            FramePoll::TimedOut => {}
            FramePoll::Eof => return Err("bulk: connection closed before DONE".into()),
        }
    }
}

/// Interactive samples per window, at least: enough for a p95 with ten
/// samples beyond it.
const WINDOW_SAMPLES: usize = 200;
const MAX_WINDOWS: usize = 4;

/// Serve figures as medians over equal windows of the interactive stream,
/// so one stall (a page-in, a noisy neighbour) moves one window, not the
/// result.
#[derive(Debug, PartialEq)]
pub struct Windowed {
    pub windows: usize,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub bulk_reads_per_s: f64,
}

pub fn windowed(r: &LoadResult) -> Windowed {
    let (il, bl) = (&r.interactive, &r.bulk);
    let n = il.latency_ms.len();
    let windows = (n / WINDOW_SAMPLES).clamp(1, MAX_WINDOWS);
    // The interactive stream spans [0, end): the last read's due time.
    let end = il
        .at_s
        .get(n.saturating_sub(1))
        .copied()
        .unwrap_or(0.0)
        .max(1e-9);
    let slot = |t: f64| ((t / end * windows as f64) as usize).min(windows - 1);
    let mut lat: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for (l, t) in il.latency_ms.iter().zip(&il.at_s) {
        lat[slot(*t)].push(*l);
    }
    let mut recs = vec![0usize; windows];
    for &t in bl.at_s.iter().filter(|&&t| t < end) {
        recs[slot(t)] += 1;
    }
    let per_window = |q: f64| -> Vec<f64> {
        lat.iter()
            .filter(|w| !w.is_empty())
            .map(|w| percentile(w, q))
            .collect()
    };
    let rates: Vec<f64> = recs
        .iter()
        .map(|&c| c as f64 / (end / windows as f64))
        .collect();
    let med = |v: Vec<f64>| if v.is_empty() { 0.0 } else { median(&v) };
    Windowed {
        windows,
        p50_ms: med(per_window(50.0)),
        p95_ms: med(per_window(95.0)),
        bulk_reads_per_s: med(rates),
    }
}

/// Server-side figures parsed from a `STATS` reply.
#[derive(Debug, Default, PartialEq)]
pub struct ServerStats {
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub batches: u64,
}

/// Parse the interactive tenant's latency line and the backend line, e.g.
/// `tenant interactive: … latency p50 <=2.0ms, p99 <=16.4ms` and
/// `backend cpu: 1200 jobs in 37 batches, 0.12 Gcells`.
pub fn parse_stats(text: &str, tenant: &str) -> Result<ServerStats, String> {
    let mut st = ServerStats::default();
    let num = |s: &str| -> Option<f64> {
        let s = s.trim_start_matches("<=");
        let end = s
            .find(|c: char| !(c.is_ascii_digit() || c == '.'))
            .unwrap_or(s.len());
        s[..end].parse().ok()
    };
    let tline = text
        .lines()
        .find(|l| l.contains(&format!("tenant {tenant}:")))
        .ok_or_else(|| format!("STATS has no line for tenant {tenant}: {text}"))?;
    let p50 = tline.split("p50 ").nth(1).and_then(num);
    let p99 = tline.split("p99 ").nth(1).and_then(num);
    match (p50, p99) {
        (Some(a), Some(b)) => (st.p50_ms, st.p99_ms) = (a, b),
        _ => return Err(format!("STATS latency not parsable: {tline}")),
    }
    st.batches = text
        .lines()
        .find_map(|l| {
            let rest = l.split(" jobs in ").nth(1)?;
            rest.split(' ').next()?.parse().ok()
        })
        .ok_or_else(|| format!("STATS has no backend batch count: {text}"))?;
    Ok(st)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_seeded_and_near_the_rate() {
        let a = arrivals(2000, 100.0, 7);
        assert_eq!(a, arrivals(2000, 100.0, 7));
        assert_ne!(a, arrivals(2000, 100.0, 8));
        assert!(a.windows(2).all(|w| w[1] > w[0]));
        let rate = 2000.0 / a[1999];
        assert!((rate - 100.0).abs() < 10.0, "rate {rate}");
    }

    #[test]
    fn windows_take_the_median_window() {
        let log = |lat: Vec<f64>, at: Vec<f64>| TenantLog {
            latency_ms: lat,
            at_s: at,
            ..Default::default()
        };
        // 800 interactive reads over 8 s: four windows of 200. The second
        // window stalls (latency 100x); the median window ignores it.
        let at: Vec<f64> = (0..800).map(|i| i as f64 / 100.0).collect();
        let lat: Vec<f64> = at
            .iter()
            .map(|&t| {
                if (2.0..4.0).contains(&t) {
                    1000.0
                } else {
                    10.0
                }
            })
            .collect();
        // Bulk: 50 RECs per second throughout, none in the stalled window.
        let bulk_at: Vec<f64> = (0..400)
            .map(|i| i as f64 / 50.0)
            .filter(|t| !(2.0..4.0).contains(t))
            .collect();
        let r = LoadResult {
            interactive: log(lat, at),
            bulk: log(Vec::new(), bulk_at),
        };
        let w = windowed(&r);
        assert_eq!(w.windows, 4);
        assert_eq!((w.p50_ms, w.p95_ms), (10.0, 10.0));
        assert!((w.bulk_reads_per_s - 50.0).abs() < 1.0, "{w:?}");
    }

    #[test]
    fn stats_reply_parses() {
        let text = "[mmm-serve] up 3.1s: 0 live / 2 admitted tenant(s), 9 read(s) accepted, 9 record(s) sent\n\
                    [mmm-serve] tenant interactive: 4 accepted, 4 sent, 0 in flight, 0 quarantined, 0 degraded, 0 prefilter-rejected, latency p50 <=2.0ms, p99 <=16.4ms\n\
                    [mmm-serve] tenant bulk: 5 accepted, 5 sent, 0 in flight, 0 quarantined, 0 degraded, 0 prefilter-rejected, latency p50 <=4.1ms, p99 <=32.8ms\n\
                    [mmm-serve] index generation 0: 1 sequence(s), 1 shard(s); 0 reload(s)\n\
                    [mmm-serve] backend cpu: 1200 jobs in 37 batches, 0.12 Gcells\n";
        let st = parse_stats(text, "interactive").unwrap();
        assert_eq!(
            st,
            ServerStats {
                p50_ms: 2.0,
                p99_ms: 16.4,
                batches: 37
            }
        );
        assert!(parse_stats(text, "nobody").is_err());
    }
}
