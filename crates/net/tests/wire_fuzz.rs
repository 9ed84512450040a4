//! Exhaustive corruption fuzzing for the `.cws` wire framing.
//!
//! The wire contract (ISSUE 8, satellite c): every single-bit flip and
//! every truncation of a framed stream must surface a [`NetError`] from
//! the decoder — never a panic, and never a silently skipped or
//! altered frame. These loops are exhaustive over the stream, not
//! sampled: each of the `8 * len` possible bit flips and each of the
//! `len` possible truncation points is tried.
//!
//! The buffered [`FrameReader`] is pinned against [`parse_frame`] over
//! a scripted [`Link`]: every chunking of the stream yields the same
//! frames, every truncation splits into `Eof` and `Corrupt` at the same
//! points, and a non-blocking read keeps a partial frame buffered.

use cwsmooth_data::WindowSpec;
use cwsmooth_net::wire::{
    encode_frame, parse_frame, parse_hello, FrameKind, FrameReader, ReadOutcome, FRAME_HEADER_LEN,
};
use cwsmooth_net::{BlockCodec, Link, NetError};
use cwsmooth_store::Encoding;
use std::collections::VecDeque;
use std::io;
use std::time::Duration;

fn codec() -> BlockCodec {
    BlockCodec::new(Encoding::Exact, 2, WindowSpec { wl: 30, ws: 10 }).unwrap()
}

/// A realistic multi-frame stream: hello, two data frames, an ack and
/// a bye — every frame kind that carries distinct payload shapes.
fn sample_stream() -> (Vec<u8>, usize) {
    let c = codec();
    let mut block = Vec::new();
    c.encode_block(
        &mut block,
        7,
        &[11, 12],
        &[0.25, -1.5, 3.0, 0.125, 2.0, -0.5, 1.5, 0.75],
    )
    .unwrap();
    let mut stream = Vec::new();
    encode_frame(
        &mut stream,
        FrameKind::Hello,
        0,
        &cwsmooth_net::wire::hello_payload(&c),
    )
    .unwrap();
    encode_frame(&mut stream, FrameKind::Data, 1, &block).unwrap();
    encode_frame(&mut stream, FrameKind::Data, 2, &block).unwrap();
    encode_frame(&mut stream, FrameKind::Ack, 2, &[]).unwrap();
    encode_frame(&mut stream, FrameKind::Bye, 2, &[]).unwrap();
    (stream, 5)
}

/// Walks a byte stream with [`parse_frame`], returning either the list
/// of `(kind, seq, payload)` tuples or the first decode error.
fn decode_all(bytes: &[u8]) -> Result<Vec<(FrameKind, u64, Vec<u8>)>, NetError> {
    let mut frames = Vec::new();
    let mut at = 0;
    while let Some((frame, next)) = parse_frame(bytes, at)? {
        frames.push((frame.kind, frame.seq, frame.payload.to_vec()));
        assert!(next > at, "parser must make progress");
        at = next;
    }
    Ok(frames)
}

#[test]
fn pristine_stream_decodes_fully() {
    let (stream, frames) = sample_stream();
    let decoded = decode_all(&stream).unwrap();
    assert_eq!(decoded.len(), frames);
    assert_eq!(decoded[1].0, FrameKind::Data);
    assert_eq!(decoded[4], (FrameKind::Bye, 2, Vec::new()));
}

/// Every one of the `8 * len` single-bit flips must produce a decode
/// error. No flip may panic, and no flip may yield a "successful"
/// decode — the CRC covers header and payload alike, and the header
/// fields (magic, kind, padding, length) are each validated besides.
#[test]
fn every_single_bit_flip_is_detected() {
    let (stream, _) = sample_stream();
    for byte in 0..stream.len() {
        for bit in 0..8 {
            let mut damaged = stream.clone();
            damaged[byte] ^= 1 << bit;
            let err = match decode_all(&damaged) {
                Err(e) => e,
                Ok(frames) => panic!(
                    "flip of bit {bit} in byte {byte} decoded {} frames silently",
                    frames.len()
                ),
            };
            match err {
                NetError::Corrupt { .. } => {}
                other => panic!("flip of bit {bit} in byte {byte} gave {other}, not Corrupt"),
            }
        }
    }
}

/// Every truncation point must either be a clean frame boundary (the
/// prefix decodes to fewer whole frames) or surface `Corrupt` — a
/// partial frame is damage, not a shorter message.
#[test]
fn every_truncation_is_a_boundary_or_corrupt() {
    let (stream, total) = sample_stream();
    // Recover the true boundary offsets from a clean parse.
    let mut boundaries = vec![0usize];
    let mut at = 0;
    while let Some((_, next)) = parse_frame(&stream, at).unwrap() {
        boundaries.push(next);
        at = next;
    }
    assert_eq!(boundaries.len(), total + 1);

    for cut in 0..stream.len() {
        let prefix = &stream[..cut];
        match decode_all(prefix) {
            Ok(frames) => {
                assert!(
                    boundaries.contains(&cut),
                    "truncation at {cut} decoded {} frames but is not a frame boundary",
                    frames.len()
                );
                // At boundary k the prefix holds exactly the first k
                // frames: the boundaries strictly below `cut` are 0
                // and the ends of frames 1..k-1 — k in total.
                assert_eq!(
                    frames.len(),
                    boundaries.iter().filter(|&&b| b < cut).count()
                );
            }
            Err(NetError::Corrupt { .. }) => {
                assert!(
                    !boundaries.contains(&cut),
                    "truncation at clean boundary {cut} reported Corrupt"
                );
            }
            Err(other) => panic!("truncation at {cut} gave {other}, not Corrupt"),
        }
    }
}

/// Flipping bits in a hello payload must never panic in
/// [`parse_hello`]: every outcome is `Ok` (flip landed in a dimension
/// we cannot distinguish — caught later by geometry equality), a
/// `Handshake` version error, or a `Corrupt`/`Invalid` header error.
#[test]
fn hello_payload_bit_flips_never_panic() {
    let c = codec();
    let hello = cwsmooth_net::wire::hello_payload(&c);
    for byte in 0..hello.len() {
        for bit in 0..8 {
            let mut damaged = hello.clone();
            damaged[byte] ^= 1 << bit;
            match parse_hello(&damaged) {
                Ok(parsed) => {
                    // A flip that still parses must not be a silent
                    // no-op: the parsed geometry differs, so the
                    // server's equality check rejects the session.
                    assert_ne!(parsed, c, "flip of bit {bit} in byte {byte} was invisible");
                }
                Err(NetError::Corrupt { .. })
                | Err(NetError::Handshake(_))
                | Err(NetError::Invalid(_)) => {}
                Err(other) => {
                    panic!("hello flip of bit {bit} in byte {byte} gave {other}")
                }
            }
        }
    }
}

/// Truncated hello payloads are always `Corrupt`, never a panic or an
/// out-of-bounds read.
#[test]
fn hello_truncations_are_corrupt() {
    let c = codec();
    let hello = cwsmooth_net::wire::hello_payload(&c);
    for cut in 0..hello.len() {
        match parse_hello(&hello[..cut]) {
            Err(NetError::Corrupt { .. }) => {}
            Ok(_) => panic!("truncated hello ({cut} bytes) parsed"),
            Err(other) => panic!("truncated hello ({cut} bytes) gave {other}"),
        }
    }
}

/// Oversized length fields must be rejected before any allocation: a
/// header claiming a payload beyond `MAX_FRAME_PAYLOAD` is `Corrupt`
/// even though the CRC bytes are unreachable.
#[test]
fn oversized_length_is_rejected_without_allocation() {
    let mut frame = Vec::new();
    encode_frame(&mut frame, FrameKind::Ack, 9, &[]).unwrap();
    // Patch payload_len (bytes 16..20 of the header) to a huge value.
    let huge = (u32::MAX).to_le_bytes();
    frame[16..FRAME_HEADER_LEN].copy_from_slice(&huge);
    match parse_frame(&frame, 0) {
        Err(NetError::Corrupt { .. }) => {}
        other => panic!("oversized length gave {other:?}"),
    }
}

/// One scripted read.
enum Step {
    /// Bytes to hand out (at most one caller buffer per read; the rest
    /// stays queued). Never empty: an empty read is end of stream.
    Bytes(Vec<u8>),
    /// A read that finds nothing and would block.
    WouldBlock,
}

/// A scripted [`Link`]: each read takes the next [`Step`], and reads
/// `Ok(0)` (end of stream) once the script is spent. Counts the
/// `set_read_timeout` calls.
struct Script {
    steps: VecDeque<Step>,
    timeouts_set: usize,
}

impl Script {
    fn new(steps: Vec<Step>) -> Self {
        Self {
            steps: steps.into(),
            timeouts_set: 0,
        }
    }

    /// `bytes` in reads of `chunk` bytes each.
    fn chunked(bytes: &[u8], chunk: usize) -> Self {
        Self::new(
            bytes
                .chunks(chunk)
                .map(|c| Step::Bytes(c.to_vec()))
                .collect(),
        )
    }
}

impl io::Read for Script {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.steps.pop_front() {
            None => Ok(0),
            Some(Step::WouldBlock) => Err(io::ErrorKind::WouldBlock.into()),
            Some(Step::Bytes(mut bytes)) => {
                let n = bytes.len().min(buf.len());
                buf[..n].copy_from_slice(&bytes[..n]);
                if n < bytes.len() {
                    self.steps.push_front(Step::Bytes(bytes.split_off(n)));
                }
                Ok(n)
            }
        }
    }
}

impl io::Write for Script {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Link for Script {
    fn set_read_timeout(&mut self, _timeout: Option<Duration>) -> io::Result<()> {
        self.timeouts_set += 1;
        Ok(())
    }

    fn set_write_timeout(&mut self, _timeout: Option<Duration>) -> io::Result<()> {
        Ok(())
    }

    fn set_nonblocking(&mut self, _nonblocking: bool) -> io::Result<()> {
        Ok(())
    }
}

const WAIT: Duration = Duration::from_secs(5);

/// Reads `link` to its end with one [`FrameReader`], returning what
/// [`decode_all`] returns for the same bytes.
fn read_all(link: &mut Script) -> Result<Vec<(FrameKind, u64, Vec<u8>)>, NetError> {
    let mut reader = FrameReader::new();
    let mut frames = Vec::new();
    loop {
        match reader.read_frame(link, Some(WAIT), WAIT)? {
            ReadOutcome::Frame(f) => frames.push((f.kind, f.seq, f.payload.to_vec())),
            ReadOutcome::Eof => return Ok(frames),
            ReadOutcome::Idle => panic!("a script without WouldBlock steps never idles"),
        }
    }
}

/// Chunks of 1, 2, 3, ... bytes, up to the whole stream in one read:
/// the reader yields exactly the frames `parse_frame` yields, and with
/// one timeout for the first byte and the rest it sets that timeout
/// once, however the reads fall.
#[test]
fn reader_yields_parse_frame_frames_under_every_chunking() {
    let (stream, total) = sample_stream();
    let want = decode_all(&stream).unwrap();
    assert_eq!(want.len(), total);
    for chunk in 1..=stream.len() {
        let mut link = Script::chunked(&stream, chunk);
        let got = read_all(&mut link).unwrap_or_else(|e| panic!("chunks of {chunk}: {e}"));
        assert_eq!(got, want, "chunks of {chunk} bytes");
        assert_eq!(link.timeouts_set, 1, "chunks of {chunk} bytes");
    }
}

/// The reader splits every truncation as `parse_frame` does (see
/// [`every_truncation_is_a_boundary_or_corrupt`]): the frames before a
/// boundary, then `Eof`; `Corrupt` anywhere else. Both in one read and
/// byte by byte.
#[test]
fn reader_truncation_is_eof_at_boundaries_and_corrupt_elsewhere() {
    let (stream, _) = sample_stream();
    for cut in 0..=stream.len() {
        let prefix = &stream[..cut];
        let want = decode_all(prefix);
        for chunk in [cut.max(1), 1] {
            let got = read_all(&mut Script::chunked(prefix, chunk));
            match (&want, got) {
                (Ok(want), Ok(got)) => assert_eq!(&got, want, "cut {cut}, chunks of {chunk}"),
                (Err(NetError::Corrupt { .. }), Err(NetError::Corrupt { .. })) => {}
                (want, got) => panic!(
                    "cut {cut}, chunks of {chunk}: parse_frame gave {want:?}, the reader {got:?}"
                ),
            }
        }
    }
}

/// A non-blocking read that finds half an ack frame reports `Idle` and
/// keeps the bytes; once the rest arrives the next read returns the
/// frame. A blocking read that stalls mid-frame is a `Timeout`.
#[test]
fn nonblocking_read_keeps_a_partial_frame() {
    let mut ack = Vec::new();
    encode_frame(&mut ack, FrameKind::Ack, 7, &[]).unwrap();
    let (head, tail) = ack.split_at(ack.len() / 2);
    let mut link = Script::new(vec![
        Step::Bytes(head.to_vec()),
        Step::WouldBlock,
        Step::Bytes(tail.to_vec()),
        Step::WouldBlock,
    ]);
    let mut reader = FrameReader::new();
    assert!(matches!(
        reader.poll_frame(&mut link).unwrap(),
        ReadOutcome::Idle
    ));
    match reader.poll_frame(&mut link).unwrap() {
        ReadOutcome::Frame(f) => {
            assert_eq!((f.kind, f.seq), (FrameKind::Ack, 7));
            assert!(f.payload.is_empty());
        }
        other => panic!("expected the completed ack, got {other:?}"),
    }
    assert!(matches!(
        reader.poll_frame(&mut link).unwrap(),
        ReadOutcome::Idle
    ));
    assert!(matches!(
        reader.poll_frame(&mut link).unwrap(),
        ReadOutcome::Eof
    ));

    let mut stalled = Script::new(vec![Step::Bytes(head.to_vec()), Step::WouldBlock]);
    let mut reader = FrameReader::new();
    match reader.read_frame(&mut stalled, Some(WAIT), WAIT) {
        Err(NetError::Timeout(_)) => {}
        other => panic!("a stall mid-frame gave {other:?}, not Timeout"),
    }
}
