//! `serve_cold` and `serve_warm`: `piton-serve` sessions over the
//! socket protocol.
//!
//! A session starts a fresh daemon process (so its calibration cache
//! starts empty), pings it, sends one slice of the request script as
//! set-up and the rest of the script as the measured phase. Every
//! request selects the same number of `design_space` points at `quick`
//! fidelity; the seed decides the order of the slices, the offsets of
//! the warm workload's re-sliced passes and the cross-check sample.

use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use piton_core::experiments::{design_space, Fidelity};
use piton_core::journal::{fnv64, point_key, JournalPayload};
use piton_core::serve::frames::Frame;

use crate::spans::Spans;
use crate::{Checks, Fallible, Outcome, Rng, SETUPS};

/// Grid points per request (the `design_space` grid is 35 slices).
pub const SLICE: usize = 3_000;
pub const SECTION: &str = "design_space";

/// Nominal host seconds per cold session and per warm pass over the
/// grid: they size the measured phases from `--seconds`, so every run
/// of a given length does the same work.
const COLD_SESSION_S: f64 = 3.0;
const WARM_PASS_S: f64 = 2.0;

/// One request of the script: the inclusive index ranges it selects.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Slice {
    pub ranges: Vec<(usize, usize)>,
}

impl Slice {
    pub fn len(&self) -> usize {
        self.ranges.iter().map(|(a, b)| b - a + 1).sum()
    }

    fn indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.ranges.iter().flat_map(|&(a, b)| a..=b)
    }

    /// Request id: the slice's first range, so a replayed slice sends
    /// (and gets back) the same bytes.
    fn id(&self) -> String {
        format!("s{}-{}", self.ranges[0].0, self.ranges[0].1)
    }

    pub fn request(&self) -> String {
        let grid = self
            .ranges
            .iter()
            .map(|(a, b)| format!("{a}-{b}"))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"op\":\"run\",\"id\":\"{}\",\"section\":\"{SECTION}\",\"grid\":\"{grid}\",\"fidelity\":\"quick\"}}\n",
            self.id()
        )
    }
}

/// The grid cut into `SLICE`-point slices starting at `offset`
/// (wrapping), in a seeded order.
pub fn script(grid: usize, offset: usize, rng: &mut Rng) -> Vec<Slice> {
    assert_eq!(grid % SLICE, 0, "the grid splits into equal slices");
    let mut slices: Vec<Slice> = (0..grid / SLICE)
        .map(|j| {
            let a = (offset + j * SLICE) % grid;
            let b = a + SLICE - 1;
            let ranges = if b < grid {
                vec![(a, b)]
            } else {
                vec![(a, grid - 1), (0, b - grid)]
            };
            Slice { ranges }
        })
        .collect();
    rng.shuffle(&mut slices);
    slices
}

/// A daemon process; killed and reaped on drop if still running.
pub struct Daemon {
    child: Child,
}

impl Daemon {
    pub fn start(bin: &Path, socket: &Path, cache: &Path, log: &Path) -> Fallible<Self> {
        let log = File::create(log).map_err(|e| format!("daemon log {}: {e}", log.display()))?;
        let child = Command::new(bin)
            .arg("--socket")
            .arg(socket)
            .arg("--cache-dir")
            .arg(cache)
            .args(["--jobs", "1"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        Ok(Self { child })
    }

    /// Peak resident set of the daemon so far (KiB).
    pub fn hwm_kb(&self) -> u64 {
        crate::vm_hwm_kb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Waits for a clean exit after a shutdown request.
    pub fn wait(mut self) -> Fallible<()> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(None) => return Err("daemon did not stop after shutdown".to_owned()),
                Err(e) => return Err(format!("daemon wait: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One client connection.
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

/// A run request's response: its raw lines and their decoded frames.
pub struct Response {
    pub lines: Vec<Vec<u8>>,
    pub frames: Vec<Frame>,
}

impl Response {
    pub fn bytes_hash(&self) -> u64 {
        fnv64(&self.lines.concat())
    }
}

impl Client {
    /// Connects, retrying while the daemon binds its socket.
    pub fn connect(socket: &Path) -> Fallible<Self> {
        let deadline = Instant::now() + Duration::from_secs(20);
        let stream = loop {
            match UnixStream::connect(socket) {
                Ok(s) => break s,
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => return Err(format!("connect {}: {e}", socket.display())),
            }
        };
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| format!("socket timeout: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("socket clone: {e}"))?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request line and reads its reply.
    pub fn call(&mut self, line: &str) -> Fallible<Response> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        read_reply(&mut self.reader)
    }

    pub fn counters(&mut self) -> Fallible<Vec<(String, u64)>> {
        match self.call("{\"op\":\"metrics\"}\n")?.frames.pop() {
            Some(Frame::Metrics { counters }) => Ok(counters),
            other => Err(format!("metrics op answered {other:?}")),
        }
    }
}

/// Reads frames until the one that closes a reply (`done`/`error` for
/// runs, else the first). A frame that fails its checksum is a
/// protocol failure.
pub fn read_reply(reader: &mut impl BufRead) -> Fallible<Response> {
    let mut resp = Response {
        lines: Vec::new(),
        frames: Vec::new(),
    };
    loop {
        let mut buf = Vec::new();
        let n = reader
            .read_until(b'\n', &mut buf)
            .map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection mid-reply".to_owned());
        }
        let frame = Frame::decode(&buf).map_err(|e| format!("frame: {e}"))?;
        let last = !matches!(frame, Frame::Hello { .. } | Frame::Result { .. });
        resp.lines.push(buf);
        resp.frames.push(frame);
        if last {
            return Ok(resp);
        }
    }
}

pub fn counter(counters: &[(String, u64)], name: &str) -> u64 {
    counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

/// Checks one run response against its request: framing (already
/// verified by decode), the hello/done accounting, index order and
/// coverage, and every key against `point_key`. Returns the context the
/// daemon resolved.
pub fn check_response(
    checks: &mut Checks,
    slice: &Slice,
    resp: &Response,
    context: Option<&str>,
) -> Option<String> {
    let what = slice.id();
    let (
        Some(Frame::Hello {
            id: hid,
            section: hsec,
            context: ctx,
            points,
        }),
        Some(Frame::Done {
            id: did,
            section: dsec,
            points: done_points,
            holes,
        }),
    ) = (resp.frames.first(), resp.frames.last())
    else {
        checks.fail(format!("{what}: reply is not hello … done"));
        return None;
    };
    let n = slice.len() as u64;
    checks.check(
        hid.as_deref() == Some(what.as_str())
            && did.as_deref() == Some(what.as_str())
            && hsec == SECTION
            && dsec == SECTION
            && *points == n
            && *done_points == n
            && holes.is_empty(),
        || {
            format!(
                "{what}: hello/done report {points}/{done_points} points, {} holes",
                holes.len()
            )
        },
    );
    if let Some(expected) = context {
        checks.check(ctx == expected, || {
            format!("{what}: context {ctx:?} != {expected:?}")
        });
    }
    let results = &resp.frames[1..resp.frames.len() - 1];
    checks.check(results.len() as u64 == n, || {
        format!("{what}: {} result frames for {n} points", results.len())
    });
    let mut expected = {
        let mut v: Vec<usize> = slice.indices().collect();
        v.sort_unstable();
        v.into_iter()
    };
    for f in results {
        let want = expected.next();
        match f {
            Frame::Result {
                section,
                index,
                key,
                ..
            } => {
                let idx = *index as usize;
                if Some(idx) != want || section != SECTION || *key != point_key(ctx, SECTION, idx) {
                    checks.fail(format!(
                        "{what}: result {idx} (key {key:#x}) out of order or mis-keyed"
                    ));
                    break;
                }
            }
            other => {
                checks.fail(format!("{what}: unexpected frame {other:?}"));
                break;
            }
        }
    }
    Some(ctx.clone())
}

/// The result lines of one full pass over the grid, by index: what a
/// warm daemon must reproduce byte for byte.
pub struct ColdLines {
    buf: Vec<u8>,
    at: Vec<(usize, usize)>,
}

impl ColdLines {
    fn new(grid: usize) -> Self {
        Self {
            buf: Vec::new(),
            at: vec![(0, 0); grid],
        }
    }

    fn keep(&mut self, resp: &Response) {
        for (line, f) in resp.lines.iter().zip(&resp.frames) {
            if let Frame::Result { index, .. } = f {
                self.at[*index as usize] = (self.buf.len(), line.len());
                self.buf.extend_from_slice(line);
            }
        }
    }

    fn line(&self, index: usize) -> &[u8] {
        let (at, len) = self.at[index];
        &self.buf[at..at + len]
    }
}

/// What the sessions share across one run.
pub struct Env<'a> {
    pub serve_bin: &'a Path,
    pub work: &'a Path,
}

struct Session {
    daemon: Daemon,
    client: Client,
}

fn start_session(env: &Env, name: &str, cache: &Path) -> Fallible<Session> {
    let socket = env.work.join(format!("{name}.sock"));
    let daemon = Daemon::start(
        env.serve_bin,
        &socket,
        cache,
        &env.work.join(format!("{name}.log")),
    )?;
    let mut client = Client::connect(&socket)?;
    match client.call("{\"op\":\"ping\"}\n")?.frames.as_slice() {
        [Frame::Pong { .. }] => {}
        other => return Err(format!("ping answered {other:?}")),
    }
    Ok(Session { daemon, client })
}

/// Stops a session's daemon, returning its counters and peak RSS.
fn stop_session(mut s: Session, out: &mut Outcome) -> Fallible<Vec<(String, u64)>> {
    let counters = s.client.counters()?;
    out.child_hwm_kb = out.child_hwm_kb.max(s.daemon.hwm_kb());
    match s.client.call("{\"op\":\"shutdown\"}\n")?.frames.as_slice() {
        [Frame::Bye] => {}
        other => return Err(format!("shutdown answered {other:?}")),
    }
    drop(s.client);
    s.daemon.wait()?;
    out.cache_hits += counter(&counters, "serve.cache_hits");
    out.points_computed += counter(&counters, "serve.points_computed");
    Ok(counters)
}

const SETUP_REQUEST: &str = "core.serve.setup_request";

/// One measured request: timed, and counted as an attempted operation.
fn measured_call(
    spans: &mut Spans,
    client: &mut Client,
    slice: &Slice,
    out: &mut Outcome,
) -> Fallible<Response> {
    let (resp, s) = timed_call(spans, "core.serve.request", client, slice)?;
    out.op_ms.push(s * 1e3);
    out.measured_s += s;
    out.points += slice.len() as u64;
    out.attempted += 1;
    Ok(resp)
}

fn timed_call(
    spans: &mut Spans,
    name: &'static str,
    client: &mut Client,
    slice: &Slice,
) -> Fallible<(Response, f64)> {
    let (resp, d) = spans.time(name, slice.len() as u64, |_| client.call(&slice.request()));
    Ok((resp?, d.as_secs_f64()))
}

/// Checks one reply as soon as it arrives (outside its timed span),
/// so the harness holds one reply at a time. A reply that does not end
/// in `done` is a failed operation when it answers a measured request
/// (`k > 0`), and a failed check otherwise.
fn take_reply(
    checks: &mut Checks,
    out: &mut Outcome,
    k: usize,
    slice: &Slice,
    resp: &Response,
    context: &mut Option<String>,
) {
    if !matches!(resp.frames.last(), Some(Frame::Done { .. })) {
        if k == 0 {
            checks.fail(format!(
                "set-up or fill request answered {:?}",
                resp.frames.last()
            ));
        } else {
            out.failed += 1;
        }
    }
    let resolved = check_response(checks, slice, resp, context.as_deref());
    if context.is_none() {
        *context = resolved;
    }
}

fn check_counters(
    checks: &mut Checks,
    what: &str,
    counters: &[(String, u64)],
    want: &[(&str, u64)],
) {
    for &(name, v) in want {
        let got = counter(counters, name);
        checks.check(got == v, || format!("{what}: {name} = {got}, expected {v}"));
    }
}

/// Served payload bytes by grid index, for the cross-check.
pub type Sampled = Vec<(usize, Vec<u8>)>;

/// `serve_cold`: each session runs a fresh daemon over an empty cache
/// and computes the whole grid.
pub fn cold(
    env: &Env,
    seed: u64,
    seconds: u64,
    spans: &mut Spans,
    checks: &mut Checks,
) -> Fallible<Outcome> {
    let grid = design_space::grid().len();
    let mut rng = Rng::new(seed);
    let slices = script(grid, 0, &mut rng);
    let sample: Vec<usize> = (0..64).map(|_| rng.below(grid)).collect();
    let mut reference: Vec<u64> = Vec::new();
    let mut context: Option<String> = None;
    let sessions = ((seconds as f64 / COLD_SESSION_S).round() as usize).max(SETUPS);
    let mut out = Outcome::default();
    let mut mark = (0, 0.0);
    for i in 0..sessions {
        let name = format!("cold-{i}");
        let cache = env.work.join(&name);
        let _ = std::fs::remove_dir_all(&cache);
        let (started, d) = spans.time("setup", 1, |s| -> Fallible<(Session, Response)> {
            let mut session = start_session(env, &name, &cache)?;
            let (resp, _) = timed_call(s, SETUP_REQUEST, &mut session.client, &slices[0])?;
            Ok((session, resp))
        });
        let (mut session, first) = started?;
        out.setup_s.push(d.as_secs_f64());
        let mut first = Some(first);
        let mut hashes = Vec::with_capacity(slices.len());
        for (k, slice) in slices.iter().enumerate() {
            let resp = match first.take() {
                Some(resp) => resp,
                None => measured_call(spans, &mut session.client, slice, &mut out)?,
            };
            take_reply(checks, &mut out, k, slice, &resp, &mut context);
            hashes.push(resp.bytes_hash());
            if i == 0 {
                for f in &resp.frames {
                    if let Frame::Result { index, payload, .. } = f {
                        if sample.contains(&(*index as usize)) {
                            out.sampled
                                .push((*index as usize, payload.render().into_bytes()));
                        }
                    }
                }
            }
        }
        out.close_unit(&mut mark);
        let counters = stop_session(session, &mut out)?;
        check_counters(
            checks,
            &format!("cold session {i}"),
            &counters,
            &[
                ("serve.points_computed", grid as u64),
                ("serve.cache_hits", 0),
                ("serve.holes", 0),
                ("serve.errors", 0),
            ],
        );
        if i == 0 {
            reference = hashes;
        } else {
            checks.check(hashes == reference, || {
                format!("cold session {i} answered differently from session 0")
            });
        }
        let _ = std::fs::remove_dir_all(&cache);
    }
    out.sampled.sort();
    Ok(out)
}

/// Cross-checks served payloads against `design_space::compute_point`
/// evaluated in this process from its own calibration.
pub fn cross_check(
    checks: &mut Checks,
    cal: &piton_core::analytic::Calibrated,
    sampled: &[(usize, Vec<u8>)],
) {
    let table = design_space::mix_table(cal);
    let grid = design_space::grid();
    checks.check(!sampled.is_empty(), || "no payloads sampled".to_owned());
    for (idx, served) in sampled {
        let own = design_space::compute_point(cal, &table, *idx, grid[*idx], None, 0)
            .map(|d| d.to_value().render().into_bytes());
        checks.check(own.as_ref() == Ok(served), || {
            format!("design point {idx}: served payload differs from compute_point")
        });
    }
}

/// The serve workloads' fidelity (what `"fidelity":"quick"` resolves to).
pub fn fidelity() -> Fidelity {
    Fidelity::quick()
}

/// `serve_warm`: one untimed cold fill, then sessions that restart a
/// daemon over a copy of the filled cache and replay the script plus
/// re-sliced passes, every point a hit.
pub fn warm(
    env: &Env,
    seed: u64,
    seconds: u64,
    spans: &mut Spans,
    checks: &mut Checks,
) -> Fallible<Outcome> {
    let grid = design_space::grid().len();
    let mut rng = Rng::new(seed);
    let slices = script(grid, 0, &mut rng);
    let passes = ((seconds as f64 / WARM_PASS_S).round() as usize).max(1);
    let extra: Vec<Slice> = (1..passes)
        .flat_map(|_| {
            let offset = 1 + rng.below(SLICE - 1);
            script(grid, offset, &mut rng)
        })
        .collect();
    let mut out = Outcome::default();

    // The fill: the cold script once, its bytes kept for comparison.
    let fill = env.work.join("fill");
    let _ = std::fs::remove_dir_all(&fill);
    let mut session = start_session(env, "fill", &fill)?;
    let mut cold = ColdLines::new(grid);
    let mut cold_hashes = Vec::new();
    let mut context: Option<String> = None;
    for slice in &slices {
        let resp = session.client.call(&slice.request())?;
        take_reply(checks, &mut out, 0, slice, &resp, &mut context);
        cold.keep(&resp);
        cold_hashes.push(resp.bytes_hash());
    }
    stop_session(session, &mut Outcome::default())?;
    out.fill_cpu_s = crate::cpu_s()?;
    let journal = std::fs::read_dir(&fill)
        .map_err(|e| format!("fill dir: {e}"))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "journal"))
        .ok_or("the fill left no journal")?;

    // Replayed slices must match their cold replies byte for byte;
    // re-sliced ones have no cold reply, only cold lines.
    let script: Vec<(&Slice, Option<u64>)> = slices
        .iter()
        .zip(cold_hashes.iter().copied().map(Some))
        .chain(extra.iter().map(|s| (s, None)))
        .collect();
    let requested: u64 = script.iter().map(|(s, _)| s.len() as u64).sum();
    for i in 0..SETUPS {
        let name = format!("warm-{i}");
        let cache = env.work.join(&name);
        let _ = std::fs::remove_dir_all(&cache);
        let (started, d) = spans.time("setup", 1, |s| -> Fallible<(Session, Response)> {
            std::fs::create_dir_all(&cache).map_err(|e| format!("warm dir: {e}"))?;
            std::fs::copy(&journal, cache.join(journal.file_name().expect("file")))
                .map_err(|e| format!("copy journal: {e}"))?;
            let mut session = start_session(env, &name, &cache)?;
            let (resp, _) = timed_call(s, SETUP_REQUEST, &mut session.client, &slices[0])?;
            Ok((session, resp))
        });
        let (mut session, first) = started?;
        out.setup_s.push(d.as_secs_f64());
        let mut first = Some(first);
        let mut mark = (out.points, out.measured_s);
        for (k, &(slice, cold_hash)) in script.iter().enumerate() {
            let resp = match first.take() {
                Some(resp) => resp,
                None => measured_call(spans, &mut session.client, slice, &mut out)?,
            };
            take_reply(checks, &mut out, k, slice, &resp, &mut context);
            if let Some(h) = cold_hash {
                checks.check(resp.bytes_hash() == h, || {
                    format!("warm reply to {} differs from the cold reply", slice.id())
                });
            }
            check_lines(checks, &cold, &resp);
            if (k + 1) % slices.len() == 0 {
                out.close_unit(&mut mark);
            }
        }
        let counters = stop_session(session, &mut out)?;
        check_counters(
            checks,
            &format!("warm session {i}"),
            &counters,
            &[
                ("serve.points_computed", 0),
                ("serve.cache_hits", requested),
                ("serve.recovered", grid as u64),
                ("serve.holes", 0),
                ("serve.errors", 0),
            ],
        );
        let _ = std::fs::remove_dir_all(&cache);
    }
    let _ = std::fs::remove_dir_all(&fill);
    Ok(out)
}

/// Every result line of a reply must equal the cold line for its index.
pub fn check_lines(checks: &mut Checks, cold: &ColdLines, resp: &Response) {
    for (line, f) in resp.lines.iter().zip(&resp.frames) {
        if let Frame::Result { index, .. } = f {
            if cold.line(*index as usize) != line.as_slice() {
                checks.fail(format!("result line {index} differs from its cold bytes"));
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piton_obs::json::Value;

    const CONTEXT: &str = "test-context";

    fn slice() -> Slice {
        Slice {
            ranges: vec![(10, 12)],
        }
    }

    /// The wire bytes of a correct reply to `slice()`.
    fn reply_bytes() -> Vec<u8> {
        let s = slice();
        let mut frames = vec![Frame::Hello {
            id: Some(s.id()),
            section: SECTION.to_owned(),
            context: CONTEXT.to_owned(),
            points: 3,
        }];
        frames.extend((10..=12u64).map(|i| Frame::Result {
            section: SECTION.to_owned(),
            index: i,
            key: point_key(CONTEXT, SECTION, i as usize),
            payload: Value::Float(i as f64 / 8.0),
        }));
        frames.push(Frame::Done {
            id: Some(s.id()),
            section: SECTION.to_owned(),
            points: 3,
            holes: Vec::new(),
        });
        frames
            .iter()
            .flat_map(|f| f.encode().into_bytes())
            .collect()
    }

    fn read(bytes: &[u8]) -> Fallible<Response> {
        read_reply(&mut std::io::Cursor::new(bytes))
    }

    #[test]
    fn a_correct_reply_passes_every_check() {
        let resp = read(&reply_bytes()).unwrap();
        let mut checks = Checks::default();
        let ctx = check_response(&mut checks, &slice(), &resp, Some(CONTEXT));
        let mut cold = ColdLines::new(20);
        cold.keep(&resp);
        check_lines(&mut checks, &cold, &resp);
        assert_eq!(ctx.as_deref(), Some(CONTEXT));
        assert!(checks.passed(), "{:?}", checks.failures);
    }

    #[test]
    fn a_flipped_frame_byte_is_caught() {
        let good = reply_bytes();
        // Flip one byte inside every frame in turn.
        let mut at = 0;
        for line in good.split_inclusive(|&b| b == b'\n') {
            let mut bad = good.clone();
            bad[at + line.len() / 2] ^= 0x01;
            assert!(read(&bad).is_err(), "flip at {}", at + line.len() / 2);
            at += line.len();
        }
    }

    #[test]
    fn a_payload_swapped_between_indices_is_caught() {
        let resp = read(&reply_bytes()).unwrap();
        let mut cold = ColdLines::new(20);
        cold.keep(&resp);
        // Re-encode the reply with the payloads of indices 10 and 11
        // swapped: checksums and keys stay valid, so only the byte
        // comparison against the cold reply can catch it.
        let mut frames = resp.frames.clone();
        let payload = |f: &Frame| match f {
            Frame::Result { payload, .. } => payload.clone(),
            _ => unreachable!(),
        };
        let (p10, p11) = (payload(&frames[1]), payload(&frames[2]));
        for (f, p) in frames[1..3].iter_mut().zip([p11, p10]) {
            if let Frame::Result { payload, .. } = f {
                *payload = p;
            }
        }
        let bytes: Vec<u8> = frames
            .iter()
            .flat_map(|f| f.encode().into_bytes())
            .collect();
        let swapped = read(&bytes).unwrap();
        let mut checks = Checks::default();
        check_response(&mut checks, &slice(), &swapped, Some(CONTEXT));
        assert!(checks.passed(), "keys and order still hold");
        check_lines(&mut checks, &cold, &swapped);
        assert!(!checks.passed());
        assert_ne!(swapped.bytes_hash(), resp.bytes_hash());
    }

    #[test]
    fn a_mis_keyed_or_short_reply_is_caught() {
        let resp = read(&reply_bytes()).unwrap();
        let mut checks = Checks::default();
        check_response(&mut checks, &slice(), &resp, Some("another-context"));
        assert!(!checks.passed());
        let mut checks = Checks::default();
        let longer = Slice {
            ranges: vec![(10, 13)],
        };
        check_response(&mut checks, &longer, &resp, Some(CONTEXT));
        assert!(!checks.passed());
    }

    #[test]
    fn scripts_cover_the_grid_in_equal_slices() {
        for offset in [0, 1, 2_999] {
            let slices = script(105_000, offset, &mut Rng::new(7));
            assert!(slices.iter().all(|s| s.len() == SLICE));
            let mut all: Vec<usize> = slices.iter().flat_map(Slice::indices).collect();
            all.sort_unstable();
            assert_eq!(all, (0..105_000).collect::<Vec<_>>());
        }
        assert_eq!(
            script(105_000, 0, &mut Rng::new(7)),
            script(105_000, 0, &mut Rng::new(7))
        );
        assert_ne!(
            script(105_000, 0, &mut Rng::new(7)),
            script(105_000, 0, &mut Rng::new(8))
        );
    }
}
