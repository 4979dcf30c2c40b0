//! Compact binary serialization of [`HotLoopTrace`]s — record once,
//! replay anywhere.
//!
//! Profile runs are expensive (the paper's methodology separates a
//! low-overhead profile run from the analysis); persisting the recorded
//! stream lets every analysis (`spt affinity --trace f.spt`, delinquent
//! ranking, reuse histograms) replay the same bytes.
//!
//! # Format (version 1)
//!
//! ```text
//! "SPTR" magic | u8 version
//! name: varint length + UTF-8 bytes
//! site_names: varint count, then (varint length + UTF-8)*
//! iterations: varint count, then per iteration:
//!   varint backbone_count | varint inner_count | varint compute_cycles
//!   per reference: u8 kind | varint site | zigzag-varint vaddr delta
//! ```
//!
//! Addresses are delta-encoded against the previous reference's address
//! (streams are local, so deltas are small); all integers are LEB128
//! varints. Typical workload traces encode at ~4–6 bytes per reference
//! versus 24 in memory.

use crate::compiled::TraceBuilder;
use crate::record::{AccessKind, MemRef, SiteId};
use crate::stream::{HotLoopTrace, TraceSink};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"SPTR";
const VERSION: u8 = 1;

fn write_varint(w: &mut impl Write, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

fn read_varint(r: &mut impl Read) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let mut b = [0u8; 1];
        r.read_exact(&mut b)?;
        if shift >= 64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "varint overflow",
            ));
        }
        v |= ((b[0] & 0x7f) as u64) << shift;
        if b[0] & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn write_string(w: &mut impl Write, s: &str) -> io::Result<()> {
    write_varint(w, s.len() as u64)?;
    w.write_all(s.as_bytes())
}

fn read_string(r: &mut impl Read, max: u64) -> io::Result<String> {
    let len = read_varint(r)?;
    if len > max {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "string too long",
        ));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad UTF-8"))
}

fn kind_byte(k: AccessKind) -> u8 {
    match k {
        AccessKind::Load => 0,
        AccessKind::Store => 1,
        AccessKind::Prefetch => 2,
    }
}

fn byte_kind(b: u8) -> io::Result<AccessKind> {
    Ok(match b {
        0 => AccessKind::Load,
        1 => AccessKind::Store,
        2 => AccessKind::Prefetch,
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad access kind",
            ))
        }
    })
}

/// Serialize `trace` to `w`.
///
/// ```
/// use sp_trace::codec::{read_trace, write_trace};
/// use sp_trace::synth;
///
/// let t = synth::pointer_chase(32, 64, 7, 0);
/// let mut buf = Vec::new();
/// write_trace(&t, &mut buf).unwrap();
/// let back = read_trace(&mut buf.as_slice()).unwrap();
/// assert_eq!(back, t);
/// ```
pub fn write_trace(trace: &HotLoopTrace, w: &mut impl Write) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&[VERSION])?;
    write_string(w, &trace.name)?;
    write_varint(w, trace.site_names.len() as u64)?;
    for s in &trace.site_names {
        write_string(w, s)?;
    }
    write_varint(w, trace.outer_iters() as u64)?;
    let mut prev_addr = 0i64;
    for it in trace.iters.iter() {
        write_varint(w, it.backbone().len() as u64)?;
        write_varint(w, it.inner().len() as u64)?;
        write_varint(w, it.compute_cycles())?;
        for r in it.refs() {
            write_ref(w, r, &mut prev_addr)?;
        }
    }
    Ok(())
}

fn write_ref(w: &mut impl Write, r: MemRef, prev: &mut i64) -> io::Result<()> {
    w.write_all(&[kind_byte(r.kind)])?;
    // ANON (u32::MAX) is by far the most common site in synthetic
    // streams; bias the encoding so it costs one byte instead of five.
    let site = if r.site == SiteId::ANON {
        0
    } else {
        r.site.0 as u64 + 1
    };
    write_varint(w, site)?;
    let delta = r.vaddr as i64 - *prev;
    write_varint(w, zigzag(delta))?;
    *prev = r.vaddr as i64;
    Ok(())
}

fn read_ref(r: &mut impl Read, prev: &mut i64) -> io::Result<MemRef> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    let kind = byte_kind(b[0])?;
    let site = match read_varint(r)? {
        0 => SiteId::ANON,
        n => SiteId((n - 1) as u32),
    };
    let delta = unzigzag(read_varint(r)?);
    let addr = prev.wrapping_add(delta);
    *prev = addr;
    Ok(MemRef {
        vaddr: addr as u64,
        site,
        kind,
    })
}

/// Deserialize a trace from `r`.
pub fn read_trace(r: &mut impl Read) -> io::Result<HotLoopTrace> {
    let mut magic = [0u8; 5];
    r.read_exact(&mut magic)?;
    if &magic[..4] != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not an SPTR trace",
        ));
    }
    if magic[4] != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported trace version {}", magic[4]),
        ));
    }
    let name = read_string(r, 1 << 16)?;
    let n_sites = read_varint(r)?;
    if n_sites > 1 << 20 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "absurd site count",
        ));
    }
    let mut site_names = Vec::with_capacity(n_sites as usize);
    for _ in 0..n_sites {
        site_names.push(read_string(r, 1 << 16)?);
    }
    let n_iters = read_varint(r)?;
    // Counts come from the file: references are appended as they decode,
    // so a count the bytes cannot back fails at end of input rather than
    // reserving memory up front.
    let mut iters = TraceBuilder::new();
    let (mut prev_addr, mut refs) = (0i64, 0u64);
    for _ in 0..n_iters {
        let n_backbone = read_varint(r)?;
        let n_inner = read_varint(r)?;
        refs = refs.saturating_add(n_backbone).saturating_add(n_inner);
        if n_backbone > 1 << 24 || n_inner > 1 << 24 || refs > u32::MAX as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "absurd iteration size",
            ));
        }
        let compute_cycles = read_varint(r)?;
        for _ in 0..n_backbone {
            iters.backbone(read_ref(r, &mut prev_addr)?);
        }
        for _ in 0..n_inner {
            iters.inner(read_ref(r, &mut prev_addr)?);
        }
        iters.end_iter(compute_cycles);
    }
    Ok(HotLoopTrace {
        name,
        site_names,
        iters: iters.finish(),
    })
}

/// FNV-1a hasher exposed as an `io::Write` sink, so [`digest`] can hash
/// the canonical serialized form without materializing it.
struct FnvWriter(u64);

impl Write for FnvWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        for &b in buf {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Content digest of a trace: FNV-1a 64 over its canonical (version 1)
/// serialization. Two traces share a digest exactly when their encoded
/// bytes match, so the digest survives a [`save`]/[`load`] round trip
/// and is a stable identity key for compiled-trace and result caches.
pub fn digest(trace: &HotLoopTrace) -> u64 {
    let mut w = FnvWriter(0xcbf2_9ce4_8422_2325);
    write_trace(trace, &mut w).expect("hashing cannot fail");
    w.0
}

/// Write `trace` to a file (buffered).
pub fn save(trace: &HotLoopTrace, path: &std::path::Path) -> io::Result<()> {
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    write_trace(trace, &mut w)?;
    w.flush()
}

/// Read a trace from a file (buffered).
pub fn load(path: &std::path::Path) -> io::Result<HotLoopTrace> {
    let mut r = io::BufReader::new(std::fs::File::open(path)?);
    read_trace(&mut r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;

    fn roundtrip(t: &HotLoopTrace) -> HotLoopTrace {
        let mut buf = Vec::new();
        write_trace(t, &mut buf).unwrap();
        read_trace(&mut buf.as_slice()).unwrap()
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = HotLoopTrace::record("empty", &[], |_| {});
        let back = roundtrip(&t);
        assert_eq!(back.name, "empty");
        assert_eq!(back.outer_iters(), 0);
    }

    #[test]
    fn synthetic_traces_roundtrip_exactly() {
        for t in [
            synth::sequential(50, 3, 0x1000, 64, 7),
            synth::random(40, 4, 0, 1 << 30, 3, 2),
            synth::pointer_chase(64, 64, 9, 1),
        ] {
            assert_eq!(roundtrip(&t), t);
        }
    }

    #[test]
    fn site_names_and_kinds_survive() {
        let t = HotLoopTrace::record("named", &["a->b", "c[i]"], |s| {
            s.iteration(
                &[MemRef::load(100, SiteId(0))],
                &[
                    MemRef::store(200, SiteId(1)),
                    MemRef::load(50, SiteId(0)).as_prefetch(),
                ],
                42,
            );
        });
        assert_eq!(roundtrip(&t), t);
    }

    #[test]
    fn encoding_is_compact_for_local_streams() {
        let t = synth::sequential(1000, 8, 0, 64, 0);
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        let per_ref = buf.len() as f64 / t.total_refs() as f64;
        assert!(per_ref < 6.0, "expected < 6 bytes/ref, got {per_ref:.1}");
    }

    #[test]
    fn bad_magic_rejected() {
        let err = read_trace(&mut &b"NOPE\x01"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn bad_version_rejected() {
        let err = read_trace(&mut &b"SPTR\x63"[..]).unwrap_err();
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn truncated_stream_errors_cleanly() {
        let t = synth::sequential(10, 2, 0, 64, 0);
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        for cut in [5, buf.len() / 2, buf.len() - 1] {
            assert!(read_trace(&mut &buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn file_save_load_roundtrip() {
        let dir = std::env::temp_dir().join("sp_trace_codec_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.spt");
        let t = synth::random(30, 3, 0, 1 << 20, 11, 4);
        save(&t, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back, t);
        assert_eq!(digest(&back), digest(&t));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn digest_survives_codec_roundtrip() {
        let t = synth::sequential(64, 4, 0x8000, 64, 3);
        assert_eq!(digest(&t), digest(&roundtrip(&t)));
        // Distinct traces get distinct digests.
        let other = synth::sequential(64, 4, 0x8040, 64, 3);
        assert_ne!(digest(&t), digest(&other));
    }

    /// A short file whose iterations claim 2^24 references each fails
    /// at end of input; nothing is reserved from the claimed counts.
    #[test]
    fn claimed_counts_the_bytes_cannot_back_are_an_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"SPTR\x01");
        write_string(&mut buf, "huge").unwrap();
        write_varint(&mut buf, 0).unwrap(); // no site names
        write_varint(&mut buf, 1 << 20).unwrap(); // iterations
        write_varint(&mut buf, 1 << 24).unwrap(); // backbone refs
        write_varint(&mut buf, 1 << 24).unwrap(); // inner refs
        write_varint(&mut buf, 0).unwrap(); // compute cycles
        for a in [64, 128] {
            write_ref(&mut buf, MemRef::anon(a), &mut 0).unwrap();
        }
        let err = read_trace(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn varint_roundtrip_extremes() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v).unwrap();
            assert_eq!(read_varint(&mut buf.as_slice()).unwrap(), v);
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123456] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
