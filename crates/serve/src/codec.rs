//! The two wire scanners every hop shares: [`LineScanner`] splits
//! request lines (the event loop's read side), and [`FrameScanner`]
//! reassembles reply frames — a header line followed by the counted
//! payload its `bytes=` field declares — for the router's backend
//! links, [`LineClient`](crate::LineClient), and the router's blocking
//! probes. Both are incremental: feed whatever bytes arrived, take what
//! is complete, keep the rest for the next read.

use crate::protocol::{parse_reply, ReplyHeader, MAX_LINE_BYTES};
use std::io::{self, Read};

/// One complete line scanned off the wire (EOF is the caller's to
/// notice).
pub(crate) enum ScanLine {
    Line(Vec<u8>),
    /// The line blew past [`MAX_LINE_BYTES`]; `len` counts its bytes
    /// (newline excluded) and the connection keeps going.
    TooLong {
        len: usize,
    },
}

/// Incremental capped-line splitter: lines up to [`MAX_LINE_BYTES`] are
/// buffered, an over-long line is consumed (never buffered) and
/// reported with its true length, and a final unterminated line at EOF
/// still counts.
#[derive(Default)]
pub(crate) struct LineScanner {
    line: Vec<u8>,
    overflow: usize,
}

impl LineScanner {
    /// Feed one chunk of raw socket bytes; `emit` receives each
    /// completed line in order.
    pub(crate) fn feed(&mut self, mut chunk: &[u8], mut emit: impl FnMut(ScanLine)) {
        while let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
            self.push_bytes(&chunk[..pos]);
            chunk = &chunk[pos + 1..];
            emit(self.take_line());
        }
        self.push_bytes(chunk);
    }

    fn push_bytes(&mut self, bytes: &[u8]) {
        if self.overflow > 0 {
            self.overflow += bytes.len();
        } else if self.line.len() + bytes.len() <= MAX_LINE_BYTES {
            self.line.extend_from_slice(bytes);
        } else {
            // Stop buffering the moment the cap is blown: the overflow
            // is counted, never stored.
            self.overflow = self.line.len() + bytes.len();
            self.line.clear();
        }
    }

    fn take_line(&mut self) -> ScanLine {
        if self.overflow > 0 {
            ScanLine::TooLong { len: std::mem::take(&mut self.overflow) }
        } else {
            ScanLine::Line(std::mem::take(&mut self.line))
        }
    }

    /// The final unterminated line at EOF, if any.
    pub(crate) fn finish(&mut self) -> Option<ScanLine> {
        if self.overflow > 0 || !self.line.is_empty() {
            Some(self.take_line())
        } else {
            None
        }
    }
}

/// One reply frame: the header line exactly as received (a relay
/// forwards it verbatim), its parse, and the payload.
pub(crate) struct RawFrame {
    pub line: String,
    pub header: ReplyHeader,
    pub payload: Vec<u8>,
}

/// Incremental reply-frame reassembler. It alternates between line mode
/// (a header, capped at [`MAX_LINE_BYTES`]) and counted mode (the
/// header's payload, whose bytes may contain `\n`). Memory grows only
/// with bytes that actually arrive: a header declaring an absurd
/// `bytes=` waits for a payload that never comes instead of allocating
/// it up front.
#[derive(Default)]
pub(crate) struct FrameScanner {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`, reclaimed lazily.
    start: usize,
    /// A parsed header whose payload is still arriving.
    head: Option<(String, ReplyHeader)>,
}

impl FrameScanner {
    /// Append bytes read off the wire.
    pub(crate) fn push(&mut self, bytes: &[u8]) {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > self.buf.len() / 2 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete frame, `Ok(None)` while one is still partial,
    /// or why the byte stream cannot be a reply stream.
    pub(crate) fn next_frame(&mut self) -> Result<Option<RawFrame>, String> {
        loop {
            if let Some((_, header)) = &self.head {
                let need = header.payload_bytes();
                if self.buf.len() - self.start < need {
                    return Ok(None);
                }
                let payload = self.buf[self.start..self.start + need].to_vec();
                self.start += need;
                let (line, header) = self.head.take().expect("pending header vanished");
                return Ok(Some(RawFrame { line, header, payload }));
            }
            let pending = &self.buf[self.start..];
            let Some(nl) = pending.iter().position(|&b| b == b'\n') else {
                if pending.len() > MAX_LINE_BYTES {
                    return Err("oversized reply header".to_string());
                }
                return Ok(None);
            };
            let line = std::str::from_utf8(&pending[..nl])
                .map_err(|_| "non-utf8 reply header".to_string())?
                .trim_end_matches('\r')
                .to_string();
            self.start += nl + 1;
            if line.is_empty() {
                continue;
            }
            let header = parse_reply(&line).map_err(|e| e.to_string())?;
            self.head = Some((line, header));
        }
    }

    /// Blocking read of the next frame from `src`, for clients that own
    /// a plain (timeout-bounded) socket.
    pub(crate) fn read_frame(&mut self, src: &mut impl Read) -> io::Result<RawFrame> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.next_frame() {
                Ok(Some(frame)) => return Ok(frame),
                Ok(None) => {}
                Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e)),
            }
            match src.read(&mut chunk) {
                Ok(0) => {
                    let what = if self.head.is_some() { "payload" } else { "header" };
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        format!("connection closed mid-{what}"),
                    ));
                }
                Ok(n) => self.push(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_scanner_splits_lines_and_reports_overflow() {
        let mut scanner = LineScanner::default();
        let mut input: Vec<u8> = Vec::new();
        input.extend_from_slice(b"PING\n");
        input.extend_from_slice(&vec![b'x'; MAX_LINE_BYTES + 10]);
        input.push(b'\n');
        input.extend_from_slice(b"STATS"); // unterminated final line
        let mut lines = Vec::new();
        // Awkward chunk sizes exercise the cross-chunk carry state.
        for chunk in input.chunks(16) {
            scanner.feed(chunk, |l| lines.push(l));
        }
        if let Some(last) = scanner.finish() {
            lines.push(last);
        }
        assert_eq!(lines.len(), 3);
        match &lines[0] {
            ScanLine::Line(l) => assert_eq!(l, b"PING"),
            ScanLine::TooLong { .. } => panic!("expected a line"),
        }
        match &lines[1] {
            ScanLine::TooLong { len } => assert_eq!(*len, MAX_LINE_BYTES + 10),
            ScanLine::Line(_) => panic!("expected overflow"),
        }
        match &lines[2] {
            ScanLine::Line(l) => assert_eq!(l, b"STATS"),
            ScanLine::TooLong { .. } => panic!("expected the unterminated tail"),
        }
        assert!(scanner.finish().is_none());
    }

    #[test]
    fn line_scanner_line_exactly_at_cap_is_accepted() {
        let mut scanner = LineScanner::default();
        let mut input = vec![b'a'; MAX_LINE_BYTES];
        input.push(b'\n');
        let mut lines = Vec::new();
        scanner.feed(&input, |l| lines.push(l));
        match lines.as_slice() {
            [ScanLine::Line(l)] => assert_eq!(l.len(), MAX_LINE_BYTES),
            _ => panic!("cap is inclusive"),
        }
    }

    #[test]
    fn frame_scanner_reassembles_split_payloads() {
        let mut scanner = FrameScanner::default();
        let mut frames = Vec::new();
        // A payload containing '\n' must not confuse the line splitter.
        let wire = b"OK GEN id=1 model=m t=2 seed=0 fmt=tsv snapshots=2 edges=3 cache=miss bytes=8\nab\ncd\nefOK PONG\n";
        for chunk in wire.chunks(5) {
            scanner.push(chunk);
            while let Some(frame) = scanner.next_frame().unwrap() {
                frames.push(frame);
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].payload, b"ab\ncd\nef");
        assert!(matches!(frames[0].header, ReplyHeader::Gen { bytes: 8, .. }));
        assert!(matches!(frames[1].header, ReplyHeader::Pong { tag: None }));
        assert_eq!(frames[1].line, "OK PONG");
    }

    #[test]
    fn frame_scanner_rejects_oversized_headers() {
        let mut scanner = FrameScanner::default();
        scanner.push(&vec![b'x'; MAX_LINE_BYTES + 2]);
        assert!(scanner.next_frame().is_err());
    }

    #[test]
    fn a_huge_declared_payload_waits_instead_of_allocating() {
        let mut scanner = FrameScanner::default();
        scanner.push(format!("OK MODELS bytes={}\nabc", usize::MAX).as_bytes());
        assert!(scanner.next_frame().unwrap().is_none());
        let mut src: &[u8] = b"def";
        let err = scanner.read_frame(&mut src).map(|_| ()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
