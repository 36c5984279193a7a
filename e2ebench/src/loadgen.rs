//! The open-loop load generator and the `max_rps` search.
//!
//! One thread drives one connection.  Frames are pre-encoded, so sending a
//! batch is one `write` of a contiguous byte range; when the generator runs
//! late it sends every overdue batch in one write instead of falling
//! further behind.  Requests are sent on the schedule regardless of
//! responses (an open loop: independent callers), and every response is
//! timed from the instant its request was *due*, so a stall in the server
//! or in the generator itself counts against every request it delays.
//!
//! The same loop with a bounded window and every batch due at once is a
//! pipelined closed loop: the next frame goes out only when fewer than
//! `window` are unanswered, which measures the server's throughput.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use admitd::wire::{self, Response};

/// One send batch: frames `[previous end, end)` are due `due_ns` after the
/// start of the run.
#[derive(Debug, Clone, Copy)]
pub struct Due {
    /// Due time, nanoseconds after the run's start.
    pub due_ns: u64,
    /// One past the batch's last frame.
    pub end: usize,
}

/// What one open-loop run observed.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// Response-arrival time of each answered frame, nanoseconds after the
    /// run's start, in frame order.
    pub received_ns: Vec<u64>,
    /// The decoded responses, in frame order.
    pub responses: Vec<Response>,
    /// How late each batch was fully written, nanoseconds past its due time.
    pub lag_ns: Vec<u64>,
    /// Most frames ever outstanding (sent, not yet answered).
    pub backlog_max: usize,
    /// Frames written.
    pub sent: usize,
}

/// Drive `schedule` over `stream` (already past the protocol magic).
///
/// `bytes[offsets[i]..offsets[i + 1]]` is frame `i`.  A batch is handed
/// to the socket once it is due and, after it, at most `window` frames are
/// unanswered (`usize::MAX`: a pure open loop).  The run stops when every
/// frame is answered, or when no answer came for `grace` once the last
/// batch was due, leaving the rest unanswered.  `before_send` is called with each batch index just before
/// the batch is first written (tests use it to stall the sender).
pub fn open_loop(
    stream: &mut TcpStream,
    bytes: &[u8],
    offsets: &[usize],
    schedule: &[Due],
    window: usize,
    grace: Duration,
    mut before_send: impl FnMut(usize),
) -> io::Result<LoopResult> {
    stream.set_nonblocking(true)?;
    let frames = schedule.last().map_or(0, |d| d.end);
    let last_due = schedule.last().map_or(0, |d| d.due_ns);
    let grace_ns = u64::try_from(grace.as_nanos()).unwrap_or(u64::MAX);
    let mut answered_ns = 0;
    let mut result = LoopResult {
        received_ns: Vec::with_capacity(frames),
        responses: Vec::with_capacity(frames),
        lag_ns: Vec::with_capacity(schedule.len()),
        ..LoopResult::default()
    };
    let mut next_batch = 0; // first batch not yet handed to `write`
    let mut done_batch = 0; // first batch not yet fully written
    let mut written = 0usize;
    let mut target = 0usize;
    let mut inbuf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut chunk = vec![0u8; 64 * 1024];
    let start = Instant::now();
    loop {
        let now_ns = elapsed_ns(start);
        while next_batch < schedule.len()
            && schedule[next_batch].due_ns <= now_ns
            && schedule[next_batch].end <= result.responses.len().saturating_add(window)
        {
            before_send(next_batch);
            target = offsets[schedule[next_batch].end];
            next_batch += 1;
        }
        while written < target {
            match stream.write(&bytes[written..target]) {
                Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "peer closed")),
                Ok(n) => written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let now_ns = elapsed_ns(start);
        while done_batch < next_batch && offsets[schedule[done_batch].end] <= written {
            result
                .lag_ns
                .push(now_ns.saturating_sub(schedule[done_batch].due_ns));
            result.sent = schedule[done_batch].end;
            done_batch += 1;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                let at = elapsed_ns(start);
                answered_ns = at;
                inbuf.extend_from_slice(&chunk[..n]);
                let mut consumed = 0;
                while let Some((lo, hi)) = wire::next_frame(&inbuf[consumed..])
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
                {
                    let response = wire::decode_response(&inbuf[consumed + lo..consumed + hi])
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                    result.responses.push(response);
                    result.received_ns.push(at);
                    consumed += hi;
                }
                inbuf.drain(..consumed);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        let outstanding = result.sent.saturating_sub(result.responses.len());
        result.backlog_max = result.backlog_max.max(outstanding);
        if result.responses.len() >= frames && next_batch == schedule.len() {
            break;
        }
        if elapsed_ns(start).saturating_sub(answered_ns.max(last_due)) > grace_ns {
            break;
        }
    }
    stream.set_nonblocking(false)?;
    Ok(result)
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The highest rate at which `passes` holds, searched geometrically.
///
/// Starts at `start`, doubles while probes pass (up to `cap`), halves while
/// they fail (down to `floor`), then bisects the bracket in log space until
/// the failing rate is within `1 + resolution` of the passing one.  Returns
/// the highest passing rate (`0` if even `floor` fails) and the number of
/// probes made.
pub fn search_max_rate(
    start: f64,
    floor: f64,
    cap: f64,
    resolution: f64,
    mut passes: impl FnMut(f64) -> bool,
) -> (f64, usize) {
    let mut probes = 0;
    let mut probe = |rate: f64| {
        probes += 1;
        passes(rate)
    };
    let mut rate = start.clamp(floor, cap);
    let (mut pass, mut fail);
    if probe(rate) {
        pass = rate;
        loop {
            if pass >= cap {
                return (pass, probes);
            }
            rate = (pass * 2.0).min(cap);
            if probe(rate) {
                pass = rate;
            } else {
                fail = rate;
                break;
            }
        }
    } else {
        fail = rate;
        loop {
            if fail <= floor {
                return (0.0, probes);
            }
            rate = (fail / 2.0).max(floor);
            if probe(rate) {
                pass = rate;
                break;
            }
            fail = rate;
        }
    }
    while fail / pass > 1.0 + resolution {
        let mid = (pass * fail).sqrt();
        if probe(mid) {
            pass = mid;
        } else {
            fail = mid;
        }
    }
    (pass, probes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::tail;
    use admitd::wire::{encode_request, encode_response, ReleaseFrame, Request, Status};
    use std::net::TcpListener;

    /// A fake server: answers every request frame in order, stalling once
    /// for `stall` after answering `stall_after` frames.
    fn fake_server(
        stall_after: usize,
        stall: Duration,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        let handle = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            conn.set_nodelay(true).ok();
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            let mut answered = 0usize;
            loop {
                let n = match conn.read(&mut chunk) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => n,
                };
                buf.extend_from_slice(&chunk[..n]);
                let mut out = Vec::new();
                let mut consumed = 0;
                while let Ok(Some((lo, hi))) = wire::next_frame(&buf[consumed..]) {
                    let request = wire::decode_request(&buf[consumed + lo..consumed + hi])
                        .expect("well-formed request");
                    if answered == stall_after {
                        std::thread::sleep(stall);
                    }
                    answered += 1;
                    let response = Response {
                        status: Status::Accept,
                        id: request.id(),
                        score: 0.0,
                    };
                    encode_response(&response, &mut out);
                    consumed += hi;
                }
                buf.drain(..consumed);
                if conn.write_all(&out).is_err() {
                    return;
                }
            }
        });
        (addr, handle)
    }

    /// `n` one-frame batches spaced `gap` apart.
    fn frames(n: usize, gap: Duration) -> (Vec<u8>, Vec<usize>, Vec<Due>) {
        let mut bytes = Vec::new();
        let mut offsets = vec![0];
        let mut schedule = Vec::new();
        for i in 0..n {
            let request = Request::Release(ReleaseFrame {
                cell: 0,
                id: i as u64,
                time: 0.0,
            });
            encode_request(&request, &mut bytes);
            offsets.push(bytes.len());
            schedule.push(Due {
                due_ns: (gap * i as u32).as_nanos() as u64,
                end: i + 1,
            });
        }
        (bytes, offsets, schedule)
    }

    fn latencies_us(result: &LoopResult, schedule: &[Due]) -> Vec<f64> {
        result
            .received_ns
            .iter()
            .zip(schedule)
            .map(|(&at, due)| (at - due.due_ns) as f64 / 1e3)
            .collect()
    }

    #[test]
    fn a_stalled_server_inflates_latency_from_due_time() {
        let stall = Duration::from_millis(40);
        let (addr, server) = fake_server(100, stall);
        let (bytes, offsets, schedule) = frames(400, Duration::from_micros(200));
        let mut conn = TcpStream::connect(addr).expect("connect");
        let result = open_loop(
            &mut conn,
            &bytes,
            &offsets,
            &schedule,
            usize::MAX,
            Duration::from_secs(2),
            |_| {},
        )
        .expect("open loop runs");
        drop(conn);
        server.join().expect("fake server exits");
        assert_eq!(result.responses.len(), 400);
        let lat = latencies_us(&result, &schedule);
        // Frames due during the stall keep being sent on schedule, and each
        // waits out the rest of the stall: the tail carries it.
        let worst = lat.iter().copied().fold(0.0, f64::max);
        assert!(
            worst >= 35_000.0,
            "worst latency {worst} us misses the 40 ms stall"
        );
        assert!(tail(&lat, 99.0).value >= 10_000.0);
        // The sender itself was never late, so the lag stays small.
        let lag: Vec<f64> = result.lag_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        assert!(tail(&lag, 99.0).value < 20_000.0);
        // At least 100 frames were queued behind the stall.
        assert!(result.backlog_max >= 100, "backlog {}", result.backlog_max);
    }

    #[test]
    fn a_stalled_sender_shows_as_lag_and_in_latency_from_due_time() {
        let (addr, server) = fake_server(usize::MAX, Duration::ZERO);
        let (bytes, offsets, schedule) = frames(400, Duration::from_micros(200));
        let mut conn = TcpStream::connect(addr).expect("connect");
        let stall = Duration::from_millis(30);
        let result = open_loop(
            &mut conn,
            &bytes,
            &offsets,
            &schedule,
            usize::MAX,
            Duration::from_secs(2),
            |b| {
                if b == 50 {
                    std::thread::sleep(stall);
                }
            },
        )
        .expect("open loop runs");
        drop(conn);
        server.join().expect("fake server exits");
        assert_eq!(result.responses.len(), 400);
        let lag: Vec<f64> = result.lag_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        // ~150 batches came due during the 30 ms stall; all were sent late.
        assert!(tail(&lag, 99.0).value >= 10_000.0);
        let lat = latencies_us(&result, &schedule);
        assert!(lat[50] >= 25_000.0, "frame 50 latency {} us", lat[50]);
    }

    #[test]
    fn a_window_bounds_the_frames_in_flight() {
        let (addr, server) = fake_server(usize::MAX, Duration::ZERO);
        let (bytes, offsets, mut schedule) = frames(500, Duration::ZERO);
        for due in &mut schedule {
            due.due_ns = 0;
        }
        let mut conn = TcpStream::connect(addr).expect("connect");
        let result = open_loop(
            &mut conn,
            &bytes,
            &offsets,
            &schedule,
            8,
            Duration::from_secs(2),
            |_| {},
        )
        .expect("closed loop runs");
        drop(conn);
        server.join().expect("fake server exits");
        assert_eq!(result.responses.len(), 500);
        assert!(result.backlog_max <= 8, "backlog {}", result.backlog_max);
    }

    #[test]
    fn search_finds_the_threshold_within_resolution() {
        let threshold = 123_456.0;
        let (best, probes) = search_max_rate(10_000.0, 1_000.0, 1e7, 0.02, |r| r <= threshold);
        assert!(best <= threshold && best >= threshold / 1.02, "best {best}");
        assert!(probes < 20);
        // Starting above the threshold searches downwards.
        let (best, _) = search_max_rate(1e6, 1_000.0, 1e7, 0.02, |r| r <= threshold);
        assert!(best <= threshold && best >= threshold / 1.02, "best {best}");
        // A floor that fails reports zero; a cap that passes reports the cap.
        assert_eq!(
            search_max_rate(5_000.0, 1_000.0, 1e7, 0.02, |_| false).0,
            0.0
        );
        assert_eq!(
            search_max_rate(5_000.0, 1_000.0, 1e5, 0.02, |_| true).0,
            1e5
        );
    }
}
