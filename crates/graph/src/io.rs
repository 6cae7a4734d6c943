//! Dynamic-graph I/O: a human-readable TSV temporal format (so real
//! datasets such as Emails-DNC or Bitcoin-Alpha can be dropped in) and a
//! compact binary format for caching generated graphs.

use crate::dynamic::DynamicGraph;
use crate::snapshot::Snapshot;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;
use vrdag_tensor::Matrix;

/// I/O error for graph (de)serialization.
#[derive(Debug)]
pub enum GraphIoError {
    Io(std::io::Error),
    Parse(String),
    /// A streamed snapshot does not match the declared header shape.
    Shape(String),
}

impl fmt::Display for GraphIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphIoError::Io(e) => write!(f, "io error: {e}"),
            GraphIoError::Parse(m) => write!(f, "parse error: {m}"),
            GraphIoError::Shape(m) => write!(f, "shape error: {m}"),
        }
    }
}

impl std::error::Error for GraphIoError {}

impl From<std::io::Error> for GraphIoError {
    fn from(e: std::io::Error) -> Self {
        GraphIoError::Io(e)
    }
}

fn parse_err(msg: impl Into<String>) -> GraphIoError {
    GraphIoError::Parse(msg.into())
}

/// Streaming TSV writer: emits the header up front, then one snapshot at
/// a time to any [`io::Write`](Write), flushing after every snapshot so a
/// generation run can spill incrementally with memory bounded by a single
/// snapshot (and tail-readers see progress).
///
/// The byte stream is identical to [`save_tsv`]'s:
///
/// ```text
/// # vrdag-dynamic-graph v1
/// n <N> f <F> t <T>
/// T <t> <m>
/// <src>\t<dst>           (m lines)
/// X
/// <x1>\t<x2>...          (N lines, F columns)
/// ...repeated per snapshot
/// ```
pub struct TsvStreamWriter<W: Write> {
    w: W,
    n: usize,
    f: usize,
    t_len: usize,
    written: usize,
}

impl<W: Write> TsvStreamWriter<W> {
    /// Write the header for a `t_len`-snapshot graph over `n` nodes with
    /// `f` attributes.
    pub fn new(mut w: W, n: usize, f: usize, t_len: usize) -> Result<Self, GraphIoError> {
        writeln!(w, "# vrdag-dynamic-graph v1")?;
        writeln!(w, "n {n} f {f} t {t_len}")?;
        Ok(TsvStreamWriter { w, n, f, t_len, written: 0 })
    }

    /// Append the next snapshot and flush.
    pub fn write_snapshot(&mut self, s: &Snapshot) -> Result<(), GraphIoError> {
        if self.written >= self.t_len {
            return Err(GraphIoError::Shape(format!(
                "already wrote the declared {} snapshots",
                self.t_len
            )));
        }
        if s.n_nodes() != self.n || s.n_attrs() != self.f {
            return Err(GraphIoError::Shape(format!(
                "snapshot is [n={}, f={}], header declared [n={}, f={}]",
                s.n_nodes(),
                s.n_attrs(),
                self.n,
                self.f
            )));
        }
        writeln!(self.w, "T {} {}", self.written, s.n_edges())?;
        for &(u, v) in s.edges() {
            writeln!(self.w, "{u}\t{v}")?;
        }
        writeln!(self.w, "X")?;
        for r in 0..s.n_nodes() {
            let row = s.attrs().row(r);
            let mut line = String::with_capacity(row.len() * 8);
            for (i, x) in row.iter().enumerate() {
                if i > 0 {
                    line.push('\t');
                }
                line.push_str(&format!("{x}"));
            }
            writeln!(self.w, "{line}")?;
        }
        self.written += 1;
        self.w.flush()?;
        Ok(())
    }

    /// Snapshots written so far.
    pub fn written(&self) -> usize {
        self.written
    }

    /// Mutable access to the inner writer, like `BufWriter::get_mut`.
    /// Writing to it directly corrupts the stream; draining an in-memory
    /// buffer between snapshots is the intended use.
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.w
    }

    /// Validate that all declared snapshots were written and return the
    /// inner writer.
    pub fn finish(self) -> Result<W, GraphIoError> {
        if self.written != self.t_len {
            return Err(GraphIoError::Shape(format!(
                "wrote {} of the declared {} snapshots",
                self.written, self.t_len
            )));
        }
        Ok(self.w)
    }
}

/// Write a dynamic graph as TSV (see [`TsvStreamWriter`] for the format).
pub fn save_tsv(g: &DynamicGraph, path: impl AsRef<Path>) -> Result<(), GraphIoError> {
    let file = std::fs::File::create(path)?;
    write_tsv(g, BufWriter::new(file)).map(|_| ())
}

/// Write a dynamic graph as TSV to an arbitrary writer.
pub fn write_tsv<W: Write>(g: &DynamicGraph, w: W) -> Result<W, GraphIoError> {
    let mut sw = TsvStreamWriter::new(w, g.n_nodes(), g.n_attrs(), g.t_len())?;
    for (_, s) in g.iter() {
        sw.write_snapshot(s)?;
    }
    sw.finish()
}

/// Load a dynamic graph saved by [`save_tsv`].
pub fn load_tsv(path: impl AsRef<Path>) -> Result<DynamicGraph, GraphIoError> {
    let file = std::fs::File::open(path)?;
    let mut r = BufReader::new(file);
    let mut line = String::new();

    let read_line =
        |r: &mut BufReader<std::fs::File>, line: &mut String| -> Result<bool, GraphIoError> {
            line.clear();
            Ok(r.read_line(line)? > 0)
        };

    // Header.
    if !read_line(&mut r, &mut line)? || !line.starts_with("# vrdag-dynamic-graph") {
        return Err(parse_err("missing magic header"));
    }
    if !read_line(&mut r, &mut line)? {
        return Err(parse_err("missing size header"));
    }
    let toks: Vec<&str> = line.split_whitespace().collect();
    if toks.len() != 6 || toks[0] != "n" || toks[2] != "f" || toks[4] != "t" {
        return Err(parse_err(format!("bad size header: {line}")));
    }
    let n: usize = toks[1].parse().map_err(|_| parse_err("bad n"))?;
    let f: usize = toks[3].parse().map_err(|_| parse_err("bad f"))?;
    let t_len: usize = toks[5].parse().map_err(|_| parse_err("bad t"))?;

    let mut snaps = Vec::with_capacity(t_len);
    for t in 0..t_len {
        if !read_line(&mut r, &mut line)? {
            return Err(parse_err(format!("missing snapshot {t}")));
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        if toks.len() != 3 || toks[0] != "T" {
            return Err(parse_err(format!("bad snapshot header: {line}")));
        }
        let m: usize = toks[2].parse().map_err(|_| parse_err("bad edge count"))?;
        let mut edges = Vec::with_capacity(m);
        for _ in 0..m {
            if !read_line(&mut r, &mut line)? {
                return Err(parse_err("truncated edge list"));
            }
            let mut it = line.split_whitespace();
            let u: u32 = it
                .next()
                .ok_or_else(|| parse_err("missing src"))?
                .parse()
                .map_err(|_| parse_err("bad src"))?;
            let v: u32 = it
                .next()
                .ok_or_else(|| parse_err("missing dst"))?
                .parse()
                .map_err(|_| parse_err("bad dst"))?;
            edges.push((u, v));
        }
        if !read_line(&mut r, &mut line)? || line.trim() != "X" {
            return Err(parse_err("missing attribute marker"));
        }
        let mut attrs = Matrix::zeros(n, f);
        for row in 0..n {
            if !read_line(&mut r, &mut line)? {
                return Err(parse_err("truncated attribute block"));
            }
            let vals: Result<Vec<f32>, _> =
                line.split_whitespace().map(|x| x.parse::<f32>()).collect();
            let vals = vals.map_err(|_| parse_err("bad attribute value"))?;
            if vals.len() != f {
                return Err(parse_err(format!(
                    "attribute row {row} has {} values, expected {f}",
                    vals.len()
                )));
            }
            attrs.row_mut(row).copy_from_slice(&vals);
        }
        snaps.push(Snapshot::new(n, edges, attrs));
    }
    Ok(DynamicGraph::new(snaps))
}

const BIN_MAGIC: u32 = 0x5644_4147; // "VDAG"

/// Streaming binary writer: the compact format of [`encode_binary`], one
/// snapshot at a time over any [`io::Write`](Write), flushed per
/// snapshot. This is the serving layer's spill path — a multi-thousand
/// timestep generation run never holds more than one snapshot in memory.
pub struct BinaryStreamWriter<W: Write> {
    w: W,
    n: usize,
    f: usize,
    t_len: usize,
    written: usize,
}

impl<W: Write> BinaryStreamWriter<W> {
    /// Write the 16-byte header for a `t_len`-snapshot graph.
    pub fn new(mut w: W, n: usize, f: usize, t_len: usize) -> Result<Self, GraphIoError> {
        w.write_all(&BIN_MAGIC.to_le_bytes())?;
        w.write_all(&(n as u32).to_le_bytes())?;
        w.write_all(&(f as u32).to_le_bytes())?;
        w.write_all(&(t_len as u32).to_le_bytes())?;
        Ok(BinaryStreamWriter { w, n, f, t_len, written: 0 })
    }

    /// Append the next snapshot and flush.
    pub fn write_snapshot(&mut self, s: &Snapshot) -> Result<(), GraphIoError> {
        if self.written >= self.t_len {
            return Err(GraphIoError::Shape(format!(
                "already wrote the declared {} snapshots",
                self.t_len
            )));
        }
        if s.n_nodes() != self.n || s.n_attrs() != self.f {
            return Err(GraphIoError::Shape(format!(
                "snapshot is [n={}, f={}], header declared [n={}, f={}]",
                s.n_nodes(),
                s.n_attrs(),
                self.n,
                self.f
            )));
        }
        self.w.write_all(&(s.n_edges() as u32).to_le_bytes())?;
        // Edge list, then the row-major attribute block, as one buffer per
        // snapshot to keep syscall counts low.
        let mut buf = Vec::with_capacity(s.n_edges() * 8 + s.attrs().data().len() * 4);
        for &(u, v) in s.edges() {
            buf.extend_from_slice(&u.to_le_bytes());
            buf.extend_from_slice(&v.to_le_bytes());
        }
        for &x in s.attrs().data() {
            buf.extend_from_slice(&x.to_le_bytes());
        }
        self.w.write_all(&buf)?;
        self.written += 1;
        self.w.flush()?;
        Ok(())
    }

    /// Snapshots written so far.
    pub fn written(&self) -> usize {
        self.written
    }

    /// Mutable access to the inner writer, like `BufWriter::get_mut`.
    /// Writing to it directly corrupts the stream; draining an in-memory
    /// buffer between snapshots is the intended use.
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.w
    }

    /// Validate that all declared snapshots were written and return the
    /// inner writer.
    pub fn finish(self) -> Result<W, GraphIoError> {
        if self.written != self.t_len {
            return Err(GraphIoError::Shape(format!(
                "wrote {} of the declared {} snapshots",
                self.written, self.t_len
            )));
        }
        Ok(self.w)
    }
}

/// Encode a dynamic graph into a compact binary buffer.
pub fn encode_binary(g: &DynamicGraph) -> Bytes {
    let mut buf = BytesMut::with_capacity(
        16 + g.temporal_edge_count() * 8 + g.t_len() * g.n_nodes() * g.n_attrs() * 4,
    );
    buf.put_u32_le(BIN_MAGIC);
    buf.put_u32_le(g.n_nodes() as u32);
    buf.put_u32_le(g.n_attrs() as u32);
    buf.put_u32_le(g.t_len() as u32);
    for (_, s) in g.iter() {
        buf.put_u32_le(s.n_edges() as u32);
        for &(u, v) in s.edges() {
            buf.put_u32_le(u);
            buf.put_u32_le(v);
        }
        for &x in s.attrs().data() {
            buf.put_f32_le(x);
        }
    }
    buf.freeze()
}

/// Decode a buffer produced by [`encode_binary`].
pub fn decode_binary(mut buf: impl Buf) -> Result<DynamicGraph, GraphIoError> {
    if buf.remaining() < 16 {
        return Err(parse_err("buffer too short"));
    }
    if buf.get_u32_le() != BIN_MAGIC {
        return Err(parse_err("bad magic"));
    }
    let n = buf.get_u32_le() as usize;
    let f = buf.get_u32_le() as usize;
    let t_len = buf.get_u32_le() as usize;
    let mut snaps = Vec::with_capacity(t_len);
    for _ in 0..t_len {
        if buf.remaining() < 4 {
            return Err(parse_err("truncated snapshot header"));
        }
        let m = buf.get_u32_le() as usize;
        if buf.remaining() < m * 8 + n * f * 4 {
            return Err(parse_err("truncated snapshot body"));
        }
        let mut edges = Vec::with_capacity(m);
        for _ in 0..m {
            let u = buf.get_u32_le();
            let v = buf.get_u32_le();
            edges.push((u, v));
        }
        let mut attrs = Matrix::zeros(n, f);
        for i in 0..n * f {
            attrs.data_mut()[i] = buf.get_f32_le();
        }
        snaps.push(Snapshot::new(n, edges, attrs));
    }
    Ok(DynamicGraph::new(snaps))
}

/// Save in the binary format (streamed snapshot-by-snapshot).
pub fn save_binary(g: &DynamicGraph, path: impl AsRef<Path>) -> Result<(), GraphIoError> {
    let w = BufWriter::new(std::fs::File::create(path)?);
    let mut sw = BinaryStreamWriter::new(w, g.n_nodes(), g.n_attrs(), g.t_len())?;
    for (_, s) in g.iter() {
        sw.write_snapshot(s)?;
    }
    sw.finish()?;
    Ok(())
}

/// Load from the binary format.
pub fn load_binary(path: impl AsRef<Path>) -> Result<DynamicGraph, GraphIoError> {
    let mut data = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut data)?;
    decode_binary(Bytes::from(data))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> DynamicGraph {
        let s0 = Snapshot::new(
            3,
            vec![(0, 1), (2, 0)],
            Matrix::from_fn(3, 2, |r, c| (r as f32) + 0.5 * c as f32),
        );
        let s1 = Snapshot::new(3, vec![(1, 2)], Matrix::ones(3, 2));
        DynamicGraph::new(vec![s0, s1])
    }

    #[test]
    fn tsv_round_trip() {
        let g = toy();
        let dir = std::env::temp_dir().join("vrdag_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.tsv");
        save_tsv(&g, &path).unwrap();
        let loaded = load_tsv(&path).unwrap();
        assert_eq!(g, loaded);
    }

    #[test]
    fn binary_round_trip() {
        let g = toy();
        let bytes = encode_binary(&g);
        let decoded = decode_binary(bytes).unwrap();
        assert_eq!(g, decoded);
    }

    #[test]
    fn binary_rejects_garbage() {
        let bytes = Bytes::from_static(&[1, 2, 3]);
        assert!(decode_binary(bytes).is_err());
        let bad_magic = Bytes::from(vec![0u8; 32]);
        assert!(decode_binary(bad_magic).is_err());
    }

    #[test]
    fn streamed_tsv_is_byte_identical_to_one_shot() {
        let g = toy();
        let mut streamed = Vec::new();
        let mut sw =
            TsvStreamWriter::new(&mut streamed, g.n_nodes(), g.n_attrs(), g.t_len()).unwrap();
        for (_, s) in g.iter() {
            sw.write_snapshot(s).unwrap();
        }
        sw.finish().unwrap();
        let one_shot = write_tsv(&g, Vec::new()).unwrap();
        assert_eq!(streamed, one_shot);
    }

    #[test]
    fn streamed_binary_is_byte_identical_to_encode() {
        let g = toy();
        let mut streamed = Vec::new();
        let mut sw =
            BinaryStreamWriter::new(&mut streamed, g.n_nodes(), g.n_attrs(), g.t_len()).unwrap();
        for (_, s) in g.iter() {
            sw.write_snapshot(s).unwrap();
        }
        sw.finish().unwrap();
        assert_eq!(streamed.as_slice(), encode_binary(&g).as_ref());
        let decoded = decode_binary(Bytes::from(streamed)).unwrap();
        assert_eq!(g, decoded);
    }

    #[test]
    fn stream_writers_enforce_declared_shape() {
        let g = toy();
        // Wrong n/f rejected.
        let mut sw = TsvStreamWriter::new(Vec::new(), 99, 1, 2).unwrap();
        assert!(matches!(sw.write_snapshot(g.snapshot(0)), Err(GraphIoError::Shape(_))));
        // Underfilled stream rejected at finish.
        let mut sw = BinaryStreamWriter::new(Vec::new(), 3, 2, 2).unwrap();
        sw.write_snapshot(g.snapshot(0)).unwrap();
        assert!(matches!(sw.finish(), Err(GraphIoError::Shape(_))));
        // Overfilled stream rejected per write.
        let mut sw = BinaryStreamWriter::new(Vec::new(), 3, 2, 1).unwrap();
        sw.write_snapshot(g.snapshot(0)).unwrap();
        assert!(matches!(sw.write_snapshot(g.snapshot(1)), Err(GraphIoError::Shape(_))));
    }

    #[test]
    fn tsv_rejects_missing_header() {
        let dir = std::env::temp_dir().join("vrdag_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.tsv");
        std::fs::write(&path, "nonsense\n").unwrap();
        assert!(load_tsv(&path).is_err());
    }
}
