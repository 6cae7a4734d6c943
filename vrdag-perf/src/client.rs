//! The load generators: lock-step clients for closed loops and a
//! pipelined sender/reader pair for the open loop. Each request becomes
//! a [`Rec`] holding the client-side timeline (due, sent, first `EVT`,
//! every `EVT` gap, last byte), the payload hash and the echoed trace id.

use crate::fleet::MODEL;
use crate::mix::{Class, Plan, Req, Stream, Verb};
use crate::stats::Hasher;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use vrdag_serve::protocol::{parse_reply, EndStatus, GenSpec, ReplyHeader, Request};

/// How long a client waits on a silent socket before the request counts
/// as timed out (a failure).
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// One wire connection with a frame reader (header line + exactly
/// `bytes=` payload, like `LineClient`, but splittable into a writer for
/// the open loop's sender thread).
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
    pub payload: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::with_capacity(1 << 16, stream),
            line: String::new(),
            payload: Vec::new(),
        })
    }

    /// A second handle on the socket's write half.
    pub fn writer(&self) -> io::Result<TcpStream> {
        self.writer.try_clone()
    }

    pub fn send(&mut self, line: &str) -> io::Result<()> {
        write_line(&mut self.writer, line)
    }

    /// Read one frame; its payload is left in [`Conn::payload`].
    pub fn read_frame(&mut self) -> io::Result<ReplyHeader> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"));
        }
        let header = parse_reply(&self.line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.payload.clear();
        let want = header.payload_bytes();
        (&mut self.reader).take(want as u64).read_to_end(&mut self.payload)?;
        if self.payload.len() != want {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "truncated payload"));
        }
        Ok(header)
    }
}

pub fn write_line(w: &mut TcpStream, line: &str) -> io::Result<()> {
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    w.write_all(&buf)
}

/// The wire line of request `req` under `tag`.
pub fn request_line(class: &Class, req: Req, tag: String) -> String {
    let spec = GenSpec::new(MODEL, class.t, req.seed, class.fmt).with_tag(tag);
    match class.verb {
        Verb::Gen => Request::Gen(spec),
        Verb::Sub => Request::Sub(spec),
    }
    .to_line()
}

/// One request's client-side record.
#[derive(Clone, Debug)]
pub struct Rec {
    pub class: usize,
    pub seed: u64,
    /// When the request was due: its scheduled time in the open loop,
    /// its send time in a closed loop. Latencies are measured from here.
    pub due: Instant,
    pub sent: Instant,
    /// When each `EVT` payload was complete.
    pub evts: Vec<Instant>,
    pub done: Option<Instant>,
    pub snapshots: usize,
    pub bytes: usize,
    pub hash: Hasher,
    pub cache_hit: Option<bool>,
    pub trace: Option<String>,
    pub error: Option<String>,
}

impl Rec {
    pub fn new(req: Req, due: Instant) -> Rec {
        Rec {
            class: req.class,
            seed: req.seed,
            due,
            sent: due,
            evts: Vec::new(),
            done: None,
            snapshots: 0,
            bytes: 0,
            hash: Hasher::default(),
            cache_hit: None,
            trace: None,
            error: None,
        }
    }

    pub fn ok(&self) -> bool {
        self.error.is_none() && self.done.is_some()
    }

    pub fn job_ms(&self) -> Option<f64> {
        Some(self.done?.duration_since(self.due).as_secs_f64() * 1e3).filter(|_| self.ok())
    }

    pub fn first_ms(&self) -> Option<f64> {
        Some(self.evts.first()?.duration_since(self.due).as_secs_f64() * 1e3).filter(|_| self.ok())
    }

    /// Milliseconds between consecutive `EVT` completions.
    pub fn gaps_ms(&self) -> Vec<f64> {
        self.evts.windows(2).map(|w| w[1].duration_since(w[0]).as_secs_f64() * 1e3).collect()
    }

    /// When each delivered snapshot was complete: every `EVT` of a `SUB`,
    /// or the whole `GEN` payload at once.
    pub fn snapshot_times(&self) -> Vec<Instant> {
        match self.done {
            Some(done) if self.evts.is_empty() => vec![done; self.snapshots],
            _ => self.evts.clone(),
        }
    }

    fn fail(&mut self, why: String, now: Instant) {
        self.error.get_or_insert(why);
        self.done.get_or_insert(now);
    }

    /// Fold one frame addressed to this request in; true once it is the
    /// request's terminal frame.
    pub fn on_frame(
        &mut self,
        t: usize,
        header: &ReplyHeader,
        payload: &[u8],
        now: Instant,
    ) -> bool {
        match header {
            ReplyHeader::Gen { snapshots, cache_hit, trace, .. } => {
                self.hash.write(payload);
                self.bytes += payload.len();
                self.snapshots = *snapshots;
                self.cache_hit = Some(*cache_hit);
                self.trace = trace.clone();
                self.done = Some(now);
                if *snapshots != t {
                    self.fail(format!("GEN returned {snapshots} of {t} snapshots"), now);
                }
                true
            }
            ReplyHeader::Sub { .. } => false,
            ReplyHeader::Evt { .. } => {
                self.hash.write(payload);
                self.bytes += payload.len();
                self.snapshots += 1;
                self.evts.push(now);
                false
            }
            ReplyHeader::End { status, trace, .. } => {
                self.trace = trace.clone();
                self.done = Some(now);
                if *status != EndStatus::Ok || self.snapshots != t {
                    self.fail(format!("SUB ended {status} after {} of {t}", self.snapshots), now);
                }
                true
            }
            ReplyHeader::Err { code, message, .. } => {
                self.fail(format!("ERR {code} {message}"), now);
                true
            }
            other => {
                self.fail(format!("unexpected frame {other:?}"), now);
                true
            }
        }
    }
}

fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// A lock-step client: from `start` until `end`, send the stream's next
/// request and read its frames to the terminal one. Every request sent
/// before `end` is recorded, including the one still running at `end`.
pub fn closed_loop(
    addr: SocketAddr,
    plan: &Plan,
    mut stream: Stream,
    start: Instant,
    end: Instant,
) -> Vec<Rec> {
    let mut recs = Vec::new();
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            let mut rec = Rec::new(stream.next().expect("endless stream"), start);
            rec.fail(format!("connect: {e}"), start);
            return vec![rec];
        }
    };
    sleep_until(start);
    let mut n = 0usize;
    while Instant::now() < end {
        let req = stream.next().expect("endless stream");
        let class = &plan.classes[req.class];
        let line = request_line(class, req, format!("c{n}"));
        n += 1;
        let mut rec = Rec::new(req, Instant::now());
        if let Err(e) = conn.send(&line) {
            rec.fail(format!("send: {e}"), Instant::now());
            recs.push(rec);
            break;
        }
        let broken = loop {
            match conn.read_frame() {
                Ok(header) => {
                    if rec.on_frame(class.t, &header, &conn.payload, Instant::now()) {
                        break false;
                    }
                }
                Err(e) => {
                    rec.fail(format!("read: {e}"), Instant::now());
                    break true;
                }
            }
        };
        recs.push(rec);
        if broken {
            break;
        }
    }
    recs
}

/// The open loop: a sender thread writes each request at its due time
/// on one pipelined connection while this thread demultiplexes replies
/// by tag. Returns the records (in schedule order) and how late each
/// send ran, in ms.
pub fn open_loop(
    addr: SocketAddr,
    plan: &Plan,
    schedule: &[(f64, Req)],
    start: Instant,
) -> (Vec<Rec>, Vec<f64>) {
    let mut recs: Vec<Rec> = schedule
        .iter()
        .map(|(at, req)| Rec::new(*req, start + Duration::from_secs_f64(*at)))
        .collect();
    let mut conn = match Conn::connect(addr).and_then(|c| Ok((c.writer()?, c))) {
        Ok((writer, conn)) => (writer, conn),
        Err(e) => {
            for rec in &mut recs {
                rec.fail(format!("connect: {e}"), start);
            }
            return (recs, Vec::new());
        }
    };
    let lines: Vec<(Instant, String)> = schedule
        .iter()
        .enumerate()
        .map(|(i, (_, req))| {
            (recs[i].due, request_line(&plan.classes[req.class], *req, format!("r{i}")))
        })
        .collect();
    let (writer, reader) = (&mut conn.0, &mut conn.1);
    std::thread::scope(|s| {
        let sender = s.spawn(move || {
            let mut sent = Vec::with_capacity(lines.len());
            for (due, line) in &lines {
                sleep_until(*due);
                let at = Instant::now();
                if write_line(writer, line).is_err() {
                    break;
                }
                sent.push(at);
            }
            sent
        });
        let mut outstanding = recs.len();
        while outstanding > 0 {
            let header = match reader.read_frame() {
                Ok(h) => h,
                Err(e) => {
                    let now = Instant::now();
                    for rec in recs.iter_mut().filter(|r| r.done.is_none()) {
                        rec.fail(format!("read: {e}"), now);
                    }
                    break;
                }
            };
            let now = Instant::now();
            let idx = header.tag().and_then(|t| t.strip_prefix('r')).and_then(|i| i.parse().ok());
            let Some(rec) = idx.and_then(|i: usize| recs.get_mut(i)) else {
                continue;
            };
            let t = plan.classes[rec.class].t;
            if rec.done.is_none() && rec.on_frame(t, &header, &reader.payload, now) {
                outstanding -= 1;
            }
        }
        let sent = sender.join().expect("sender thread panicked");
        let lags = recs
            .iter_mut()
            .zip(&sent)
            .map(|(rec, &at)| {
                rec.sent = at;
                at.duration_since(rec.due).as_secs_f64() * 1e3
            })
            .collect();
        for rec in recs.iter_mut().skip(sent.len()).filter(|r| r.error.is_none()) {
            rec.fail("never sent".to_string(), Instant::now());
        }
        (recs, lags)
    })
}

/// `count` lock-step `PING`s; the round-trip times in microseconds.
pub fn ping_rtts(addr: SocketAddr, count: usize) -> io::Result<Vec<f64>> {
    let mut conn = Conn::connect(addr)?;
    let mut rtts = Vec::with_capacity(count);
    for _ in 0..count {
        let t0 = Instant::now();
        conn.send("PING")?;
        match conn.read_frame()? {
            ReplyHeader::Pong { .. } => rtts.push(t0.elapsed().as_secs_f64() * 1e6),
            other => return Err(io::Error::new(io::ErrorKind::InvalidData, format!("{other:?}"))),
        }
    }
    Ok(rtts)
}
