//! Load phases over the two keep-alive connections: a closed loop (send
//! the next request when the previous answer arrives) and an open loop
//! (send on a fixed schedule, pipelining whatever is due while a request
//! is in flight). Open-loop latency is timed from each request's due
//! time, so a stall also charges the requests queued behind it.

use crate::gen::Req;
use crate::reference::Expect;
use crate::stats;
use crate::wire::{tighten_timer_slack, Conn, Response};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// One connection's cyclic request sequence, its expectations, and the
/// position the next request is taken from.
pub struct Lane<'a> {
    /// Daemon address.
    pub addr: &'a str,
    /// The cyclic sequence.
    pub seq: &'a [Req],
    /// Its expectations, index for index.
    pub expect: &'a [Expect],
    /// The connection (reopened after a timeout or a lost connection).
    pub conn: Option<Conn>,
    /// Next index (modulo the sequence length).
    pub cursor: usize,
}

impl Lane<'_> {
    fn conn(&mut self) -> Result<&mut Conn, String> {
        if self.conn.is_none() {
            self.conn = Some(Conn::connect(self.addr).map_err(|e| format!("connect: {e}"))?);
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }

    fn take_next(&mut self) -> usize {
        let i = self.cursor % self.seq.len();
        self.cursor += 1;
        i
    }
}

/// One request's fate.
struct Done {
    idx: usize,
    due: Instant,
    result: Result<Response, String>,
}

/// What one connection saw in a phase.
#[derive(Default)]
struct LaneRun {
    done: Vec<Done>,
    lag_ns: Vec<u64>,
}

/// Everything measured in one phase, over both connections.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Phase name (`closed`, `low`, `high`, `ladder.<rate>`).
    pub name: String,
    /// Offered rate (open loop), requests per second.
    pub rate: Option<f64>,
    /// Completion rate of the calmer quarter of the phase, requests/s
    /// (see [`windowed_rate`]).
    pub window_rps: f64,
    /// Requests sent or due.
    pub attempted: usize,
    /// Answered 200 with the reference answer.
    pub succeeded: usize,
    /// Succeeded per connection.
    pub per_lane: [usize; 2],
    /// Everything else.
    pub failed: usize,
    /// Of the failures, answers that differed from the reference.
    pub wrong: usize,
    /// Latencies of succeeded requests, µs, sorted.
    pub lat_us: Vec<f64>,
    /// How late the generator sent each open-loop request, µs, sorted.
    pub lag_us: Vec<f64>,
    /// The first failure, for the log.
    pub first_error: Option<String>,
    /// Median latency of the last tenth of the schedule, µs (backlog probe).
    pub tail_p50_us: f64,
    /// Calm-quartile p50 latency, µs (see [`calm_percentile`]).
    pub p50_calm_us: f64,
    /// Calm-quartile p99 latency, µs (see [`calm_percentile`]).
    pub p99_calm_us: f64,
    /// Latencies of succeeded requests in due-time order, µs.
    by_due: Vec<f64>,
}

impl Phase {
    /// Latency percentile `q` in µs (NaN without samples).
    pub fn p(&self, q: f64) -> f64 {
        stats::percentile_sorted(&self.lat_us, q)
    }
}

fn timeout() -> Duration {
    Duration::from_secs_f64(crate::config::REQUEST_TIMEOUT_S)
}

/// Closed loop on one lane until `until`.
fn closed_lane(lane: &mut Lane<'_>, until: Instant) -> LaneRun {
    tighten_timer_slack();
    let mut run = LaneRun::default();
    while Instant::now() < until {
        let idx = lane.take_next();
        let due = Instant::now();
        let wire = &lane.seq[idx].wire;
        let result = lane
            .conn()
            .and_then(|c| c.roundtrip(wire, timeout()).map_err(|e| e.to_string()));
        if result.is_err() {
            lane.conn = None;
        }
        run.done.push(Done { idx, due, result });
    }
    run
}

/// Open loop on one lane over the precomputed due times.
fn open_lane(lane: &mut Lane<'_>, dues: &[Instant]) -> LaneRun {
    tighten_timer_slack();
    let mut run = LaneRun::default();
    let mut inflight: VecDeque<(usize, Instant)> = VecDeque::new();
    let mut next = 0usize;
    let fail_all = |run: &mut LaneRun, inflight: &mut VecDeque<(usize, Instant)>, why: &str| {
        for (idx, due) in inflight.drain(..) {
            run.done.push(Done {
                idx,
                due,
                result: Err(why.to_string()),
            });
        }
    };
    loop {
        // Hand out every response already buffered.
        if let Some(conn) = lane.conn.as_mut() {
            loop {
                match conn.take() {
                    Ok(Some(r)) => {
                        let (idx, due) =
                            inflight.pop_front().expect("a response answers a request");
                        run.done.push(Done {
                            idx,
                            due,
                            result: Ok(r),
                        });
                    }
                    Ok(None) => break,
                    Err(e) => {
                        fail_all(&mut run, &mut inflight, &e.to_string());
                        lane.conn = None;
                        break;
                    }
                }
            }
        }
        let now = Instant::now();
        if next < dues.len() && dues[next] <= now {
            let idx = lane.take_next();
            run.lag_ns.push((now - dues[next]).as_nanos() as u64);
            let wire = &lane.seq[idx].wire;
            let sent = lane
                .conn()
                .and_then(|c| c.send(wire).map_err(|e| e.to_string()));
            match sent {
                Ok(()) => inflight.push_back((idx, dues[next])),
                Err(e) => {
                    fail_all(&mut run, &mut inflight, &e);
                    run.done.push(Done {
                        idx,
                        due: dues[next],
                        result: Err(e),
                    });
                    lane.conn = None;
                }
            }
            next += 1;
            continue;
        }
        if next >= dues.len() && inflight.is_empty() {
            return run;
        }
        let give_up = inflight.front().map(|&(_, due)| due + timeout());
        if give_up.is_some_and(|g| now >= g) {
            fail_all(&mut run, &mut inflight, "timed out");
            lane.conn = None;
            continue;
        }
        let wake = match (dues.get(next), give_up) {
            (Some(&d), Some(g)) => d.min(g),
            (Some(&d), None) => d,
            (None, Some(g)) => g,
            (None, None) => unreachable!("returned above"),
        };
        let Some(conn) = lane.conn.as_mut() else {
            continue;
        };
        if let Err(e) = conn.fill(wake.saturating_duration_since(now)) {
            fail_all(&mut run, &mut inflight, &e.to_string());
            lane.conn = None;
        }
    }
}

fn summarise(
    name: String,
    rate: Option<f64>,
    lanes: [&Lane<'_>; 2],
    runs: [LaneRun; 2],
    start: Instant,
) -> Phase {
    let mut p = Phase {
        name,
        rate,
        ..Phase::default()
    };
    let mut last = start;
    let mut tail: Vec<(Instant, f64)> = Vec::new();
    for (i, (lane, run)) in lanes.iter().zip(runs).enumerate() {
        p.lag_us.extend(run.lag_ns.iter().map(|&n| n as f64 / 1e3));
        for d in run.done {
            p.attempted += 1;
            let verdict = match &d.result {
                Ok(r) => {
                    last = last.max(r.at);
                    lane.expect[d.idx]
                        .check(r.status, &r.body)
                        .map(|()| r.at)
                        .map_err(|e| (r.status == 200, e))
                }
                Err(e) => Err((false, e.clone())),
            };
            match verdict {
                Ok(at) => {
                    p.succeeded += 1;
                    p.per_lane[i] += 1;
                    let us = at.saturating_duration_since(d.due).as_nanos() as f64 / 1e3;
                    tail.push((d.due, us));
                }
                Err((wrong, e)) => {
                    p.failed += 1;
                    p.wrong += usize::from(wrong);
                    p.first_error.get_or_insert_with(|| {
                        format!("{}: {e}", String::from_utf8_lossy(lane.seq[d.idx].body()))
                            .chars()
                            .take(300)
                            .collect()
                    });
                }
            }
        }
    }
    tail.sort_by_key(|t| t.0);
    p.by_due = tail.iter().map(|t| t.1).collect();
    let elapsed_s = last.saturating_duration_since(start).as_secs_f64();
    let mut ends: Vec<f64> = tail
        .iter()
        .map(|&(due, us)| due.saturating_duration_since(start).as_secs_f64() + us / 1e6)
        .collect();
    ends.sort_by(f64::total_cmp);
    p.window_rps = windowed_rate(&ends, elapsed_s);
    p.finish();
    p
}

impl Phase {
    /// Derive the order statistics from the raw samples.
    fn finish(&mut self) {
        self.lat_us = self.by_due.clone();
        self.lat_us.sort_by(f64::total_cmp);
        self.lag_us.sort_by(f64::total_cmp);
        self.p50_calm_us = calm_percentile(&self.by_due, 0.5);
        self.p99_calm_us = calm_percentile(&self.by_due, 0.99);
        let mut last_tenth = self.by_due[self.by_due.len() - self.by_due.len() / 10..].to_vec();
        last_tenth.sort_by(f64::total_cmp);
        self.tail_p50_us = stats::percentile_sorted(&last_tenth, 0.5);
    }

    /// One phase out of blocks run at the same rate at different times.
    pub fn merge(name: String, blocks: Vec<Phase>) -> Phase {
        let mut p = Phase {
            name,
            rate: blocks.first().and_then(|b| b.rate),
            ..Phase::default()
        };
        for b in blocks {
            p.attempted += b.attempted;
            p.succeeded += b.succeeded;
            p.failed += b.failed;
            p.wrong += b.wrong;
            for i in 0..2 {
                p.per_lane[i] += b.per_lane[i];
            }
            p.by_due.extend(b.by_due);
            p.lag_us.extend(b.lag_us);
            if p.first_error.is_none() {
                p.first_error = b.first_error;
            }
        }
        p.finish();
        p
    }
}

/// Width of a throughput window, seconds.
const WINDOW_S: f64 = 0.25;

/// Samples per latency slice.
const SLICE: usize = 1000;

/// Completion rate of the calmer quarter of the phase: the 75th
/// percentile over whole [`WINDOW_S`] windows of `[0, span)` of
/// completions per second, from completion times (seconds since start).
pub fn windowed_rate(ends: &[f64], span: f64) -> f64 {
    let windows = ((span / WINDOW_S).floor() as usize).max(1);
    let mut counts = vec![0usize; windows];
    for &e in ends {
        if let Some(c) = counts.get_mut((e / WINDOW_S) as usize) {
            *c += 1;
        }
    }
    let mut rates: Vec<f64> = counts.iter().map(|&c| c as f64 / WINDOW_S).collect();
    rates.sort_by(f64::total_cmp);
    stats::percentile_sorted(&rates, 0.75)
}

/// Latency percentile `q` of the calmer quarter of the phase: `q` is
/// taken in each slice of [`SLICE`] consecutive requests (by due time;
/// a short last slice joins its predecessor) and the 25th percentile of
/// those is returned. Other tenants of a shared machine take its CPU in
/// bursts; this keeps a burst over up to three quarters of a run from
/// moving the figure. One slice (fewer than `2 × SLICE` samples) gives
/// the plain percentile.
pub fn calm_percentile(by_due: &[f64], q: f64) -> f64 {
    let slices = (by_due.len() / SLICE).max(1);
    let per = by_due.len() / slices;
    let mut per_slice: Vec<f64> = (0..slices)
        .map(|i| {
            let end = if i + 1 == slices {
                by_due.len()
            } else {
                (i + 1) * per
            };
            let mut s = by_due[i * per..end].to_vec();
            s.sort_by(f64::total_cmp);
            stats::percentile_sorted(&s, q)
        })
        .collect();
    per_slice.sort_by(f64::total_cmp);
    stats::percentile_sorted(&per_slice, 0.25)
}

/// Run a closed loop on both lanes for `secs`.
pub fn closed(lanes: &mut [Lane<'_>; 2], secs: f64) -> Phase {
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(secs);
    let [a, b] = lanes;
    let runs = std::thread::scope(|s| {
        let other = s.spawn(|| closed_lane(b, until));
        let mine = closed_lane(a, until);
        [mine, other.join().expect("lane thread")]
    });
    summarise("closed".into(), None, [&lanes[0], &lanes[1]], runs, start)
}

/// Run an open loop at `rate` requests/s for `secs`, `share0` of them on
/// lane 0. Each lane's requests are evenly spaced.
pub fn open(lanes: &mut [Lane<'_>; 2], name: String, rate: f64, share0: f64, secs: f64) -> Phase {
    let start = Instant::now() + Duration::from_millis(2);
    let dues = |share: f64, phase: f64| -> Vec<Instant> {
        let r = rate * share;
        let count = (r * secs).floor() as usize;
        (0..count)
            .map(|k| start + Duration::from_secs_f64((k as f64 + phase) / r))
            .collect()
    };
    let (d0, d1) = (dues(share0, 0.0), dues(1.0 - share0, 0.5));
    let [a, b] = lanes;
    let runs = std::thread::scope(|s| {
        let other = s.spawn(|| open_lane(b, &d1));
        let mine = open_lane(a, &d0);
        [mine, other.join().expect("lane thread")]
    });
    summarise(name, Some(rate), [&lanes[0], &lanes[1]], runs, start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Req;
    use crate::reference::Expect;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    /// A fake daemon that answers `/healthz` immediately except the
    /// first request, which it holds for `stall`.
    fn stalling_server(stall: Duration, answers: usize) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let h = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            let mut answered = 0;
            while answered < answers {
                while let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                    buf.drain(..end + 4);
                    if answered == 0 {
                        std::thread::sleep(stall);
                    }
                    let body = "{\"status\":\"ok\"}";
                    write!(
                        s,
                        "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{body}",
                        body.len()
                    )
                    .unwrap();
                    answered += 1;
                }
                if answered == answers {
                    return;
                }
                let k = s.read(&mut chunk).unwrap();
                if k == 0 {
                    return;
                }
                buf.extend_from_slice(&chunk[..k]);
            }
        });
        (addr, h)
    }

    #[test]
    fn windowed_rate_ignores_stalled_windows() {
        // 100 completions per 250 ms window over 2 s, except two silent windows.
        let ends: Vec<f64> = (0..800)
            .map(|i| i as f64 * 0.0025)
            .filter(|&t| !(0.5..1.0).contains(&t))
            .collect();
        assert_eq!(windowed_rate(&ends, 2.0), 400.0);
    }

    #[test]
    fn calm_percentile_ignores_bad_slices() {
        // Eight slices; the first five have a slow tail.
        let mut xs = vec![1.0; 8000];
        for slice in 0..5 {
            for x in &mut xs[slice * 1000..slice * 1000 + 50] {
                *x = 1000.0;
            }
        }
        assert_eq!(calm_percentile(&xs, 0.99), 1.0);
        assert_eq!(calm_percentile(&xs, 0.5), 1.0);
        assert_eq!(calm_percentile(&xs[..1500], 0.99), 1000.0);
        assert_eq!(calm_percentile(&xs[..1500], 0.5), 1.0);
    }

    #[test]
    fn open_loop_times_from_the_due_time() {
        let stall = Duration::from_millis(200);
        let (addr, server) = stalling_server(stall, 20);
        let seq = vec![Req::healthz()];
        let expect = vec![Expect(vec![("status", ucfg_serve::Json::Str("ok".into()))])];
        let mut lane = Lane {
            addr: &addr,
            seq: &seq,
            expect: &expect,
            conn: None,
            cursor: 0,
        };
        // 20 requests 10 ms apart; the first answer takes 200 ms.
        let start = Instant::now() + Duration::from_millis(5);
        let dues: Vec<Instant> = (0..20)
            .map(|k| start + Duration::from_millis(10 * k))
            .collect();
        let run = open_lane(&mut lane, &dues);
        server.join().unwrap();
        assert_eq!(run.done.len(), 20);
        for d in &run.done {
            let r = d.result.as_ref().expect("answered");
            let lat = r.at - d.due;
            // The k-th request (due at 10k ms) waited behind the stall,
            // so it is late by about 200 − 10k ms from its due time,
            // even though the server answered it instantly.
            let k = d.idx_due_ms(start);
            if k < 150 {
                assert!(
                    lat >= stall - Duration::from_millis(k + 15),
                    "request due at {k} ms shows {lat:?}"
                );
            }
        }
        // The sender itself was on time: lag is not latency.
        let mut lag = run.lag_ns.clone();
        lag.sort();
        assert!(
            lag[lag.len() / 2] < 5_000_000,
            "median send lag {} ns",
            lag[lag.len() / 2]
        );
    }

    impl Done {
        fn idx_due_ms(&self, start: Instant) -> u64 {
            (self.due - start).as_millis() as u64
        }
    }
}
