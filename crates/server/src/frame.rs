//! Length-prefixed framing over a byte stream.
//!
//! A frame is `len u32 LE | payload` where `len` counts payload bytes
//! only. Zero-length frames are invalid (every payload carries at least
//! a two-byte header), which lets readers treat `len == 0` as protocol
//! corruption rather than an ambiguous keep-alive.
//!
//! A frame leaves in one vectored write (header and payload together,
//! so one TCP segment under `TCP_NODELAY` for small frames), and both
//! ends read through a buffer, so back-to-back frames come out of it in
//! order.

use std::io::{self, IoSlice, Read, Write};

/// Hard ceiling a client accepts for a single response payload. Whole
/// engine snapshots travel in one frame, so this is sized well above any
/// realistic `ShardedBstSystem::to_bytes` output (1 GiB) while still
/// bounding a corrupt length prefix.
pub const CLIENT_MAX_FRAME: u64 = 1 << 30;

/// Bytes a payload buffer is first sized to, and the most it reads per
/// step. A declared length is only a claim until its bytes arrive, so
/// the buffer grows with what has arrived: a payload of at most one
/// chunk gets one exact allocation, a longer one at most doubles what
/// it holds per step (and never exceeds its declared length).
pub const FRAME_CHUNK: usize = 64 << 10;

/// Reads a `len`-byte payload into `buf` (cleared first), chunk by
/// chunk: `fill` must fill each slice it is given exactly, or fail. The
/// buffer holds at most the bytes already received plus the chunk being
/// read, which is at most [`FRAME_CHUNK`] or the bytes already
/// received, whichever is larger. On failure `buf` keeps the chunks that
/// arrived whole.
pub fn read_payload(
    len: usize,
    buf: &mut Vec<u8>,
    mut fill: impl FnMut(&mut [u8]) -> io::Result<()>,
) -> io::Result<()> {
    buf.clear();
    buf.reserve_exact(len.min(FRAME_CHUNK));
    while buf.len() < len {
        let start = buf.len();
        let end = len.min(start + start.max(FRAME_CHUNK));
        buf.reserve_exact(end - start);
        buf.resize(end, 0);
        if let Err(e) = fill(&mut buf[start..end]) {
            buf.truncate(start);
            return Err(e);
        }
    }
    Ok(())
}

/// Writes one frame, length prefix and payload in one `write_vectored`
/// call (the payload is not copied), then flushes. A partial write
/// resumes where it stopped; a writer that accepts nothing fails with
/// [`io::ErrorKind::WriteZero`].
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame payload exceeds u32::MAX",
        )
    })?;
    let header = len.to_le_bytes();
    let mut slices = [IoSlice::new(&header), IoSlice::new(payload)];
    let mut left = &mut slices[..];
    while !left.is_empty() {
        match w.write_vectored(left) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write the whole frame",
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut left, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Reads one frame, blocking. Returns `Ok(None)` on a clean EOF at a
/// frame boundary; EOF mid-frame is an [`io::ErrorKind::UnexpectedEof`]
/// error. Lengths above `max` are rejected without allocating, and the
/// payload buffer grows as its bytes arrive ([`read_payload`]).
pub fn read_frame<R: Read>(r: &mut R, max: u64) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(None);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed inside a frame header",
                ));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(header) as u64;
    if len == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "zero-length frame",
        ));
    }
    if len > max {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {max}-byte limit"),
        ));
    }
    let mut payload = Vec::new();
    read_payload(len as usize, &mut payload, |chunk| r.read_exact(chunk))?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrips_frames_back_to_back() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"alpha").unwrap();
        write_frame(&mut buf, b"bb").unwrap();
        let mut cursor = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cursor, 1024).unwrap().unwrap(),
            b"alpha".to_vec()
        );
        assert_eq!(
            read_frame(&mut cursor, 1024).unwrap().unwrap(),
            b"bb".to_vec()
        );
        assert!(read_frame(&mut cursor, 1024).unwrap().is_none());
    }

    #[test]
    fn eof_inside_header_or_body_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        // Truncate inside the body.
        let mut cursor = Cursor::new(buf[..6].to_vec());
        assert_eq!(
            read_frame(&mut cursor, 1024).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        // Truncate inside the header.
        let mut cursor = Cursor::new(vec![3u8, 0]);
        assert_eq!(
            read_frame(&mut cursor, 1024).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn stalled_frame_holds_only_what_arrived() {
        // A peer declares a 64 MiB frame, sends 10 bytes and hangs up:
        // the reader fails with UnexpectedEof and never held more than
        // the bytes received plus one chunk.
        let declared = 64usize << 20;
        let mut wire = (declared as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&[7u8; 10]);
        assert_eq!(
            read_frame(&mut Cursor::new(wire), CLIENT_MAX_FRAME)
                .unwrap_err()
                .kind(),
            io::ErrorKind::UnexpectedEof
        );
        let mut body = Cursor::new(vec![7u8; 10]);
        let mut buf = Vec::new();
        let err = read_payload(declared, &mut buf, |chunk| body.read_exact(chunk)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(buf.capacity() <= 10 + FRAME_CHUNK, "{}", buf.capacity());
    }

    #[test]
    fn payloads_grow_exactly_to_their_length() {
        for len in [1, FRAME_CHUNK, FRAME_CHUNK + 1, 5 * FRAME_CHUNK + 3] {
            let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let mut src = Cursor::new(data.clone());
            let mut buf = Vec::new();
            let mut peak = 0;
            read_payload(len, &mut buf, |chunk| {
                peak = peak.max(chunk.len());
                src.read_exact(chunk)
            })
            .unwrap();
            assert_eq!(buf, data);
            assert_eq!(buf.capacity(), len, "one exact allocation at the end");
            assert!(peak <= FRAME_CHUNK.max(len / 2 + 1));
        }
    }

    /// Records each call it gets as one entry, taking at most `per_call`
    /// bytes of it (`usize::MAX` = all); `write_vectored` gathers every
    /// slice it is handed into one call.
    struct CallLog {
        calls: Vec<Vec<u8>>,
        per_call: usize,
    }

    impl CallLog {
        fn new(per_call: usize) -> Self {
            CallLog {
                calls: Vec::new(),
                per_call,
            }
        }
    }

    impl Write for CallLog {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(self.per_call);
            self.calls.push(buf[..n].to_vec());
            Ok(n)
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let mut call = Vec::new();
            for b in bufs {
                let n = b.len().min(self.per_call - call.len());
                call.extend_from_slice(&b[..n]);
            }
            let n = call.len();
            self.calls.push(call);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn frame_bytes(payload: &[u8]) -> Vec<u8> {
        let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(payload);
        wire
    }

    #[test]
    fn a_frame_is_one_write_call() {
        let payload: Vec<u8> = (0..300u32).map(|i| i as u8).collect();
        let mut log = CallLog::new(usize::MAX);
        write_frame(&mut log, &payload).unwrap();
        assert_eq!(log.calls, vec![frame_bytes(&payload)]);
    }

    #[test]
    fn partial_writes_resume_in_order() {
        let payload = b"partial writes";
        let mut log = CallLog::new(1);
        write_frame(&mut log, payload).unwrap();
        assert_eq!(log.calls.len(), 4 + payload.len());
        assert_eq!(log.calls.concat(), frame_bytes(payload));
    }

    #[test]
    fn interrupted_writes_retry_and_zero_writes_fail() {
        // Only `write`: the default `write_vectored` writes the first
        // non-empty slice, so the header and payload go in two calls.
        struct Flaky {
            out: Vec<u8>,
            interrupts: usize,
            zero: bool,
        }
        impl Write for Flaky {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.zero {
                    return Ok(0);
                }
                if self.interrupts > 0 {
                    self.interrupts -= 1;
                    return Err(io::ErrorKind::Interrupted.into());
                }
                self.out.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = Flaky {
            out: Vec::new(),
            interrupts: 3,
            zero: false,
        };
        write_frame(&mut w, b"again").unwrap();
        assert_eq!(w.out, frame_bytes(b"again"));

        let mut w = Flaky {
            out: Vec::new(),
            interrupts: 0,
            zero: true,
        };
        assert_eq!(
            write_frame(&mut w, b"never").unwrap_err().kind(),
            io::ErrorKind::WriteZero
        );
    }

    #[test]
    fn rejects_zero_and_oversized_lengths() {
        let mut cursor = Cursor::new(vec![0u8; 4]);
        assert_eq!(
            read_frame(&mut cursor, 1024).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        let mut buf = Vec::new();
        write_frame(&mut buf, &[7u8; 64]).unwrap();
        let mut cursor = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cursor, 63).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }
}
