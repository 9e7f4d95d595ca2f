//! The `dexd` wire protocol: length-prefixed JSON frames.
//!
//! Every message is one frame: a little-endian `u32` payload length
//! followed by that many bytes of JSON — the externally tagged serde
//! encoding of [`Request`] or [`Response`]. The framing is deliberately
//! dumb: any language with a socket and a JSON parser can speak it, and a
//! frame boundary survives pipelined requests on one connection.
//!
//! Frames are capped at [`MAX_FRAME`]; an oversized length prefix is
//! treated as a protocol error, never as an allocation request — a
//! malformed client cannot make the daemon reserve gigabytes.

use dex_core::delta::{Delta, DeltaReport};
use dex_core::{ExampleSet, MatchVerdict};
use dex_workflow::Workflow;
use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};

/// Largest accepted frame payload (16 MiB). Annotation replies carry full
/// example sets, which stay far below this at every supported scale.
pub const MAX_FRAME: usize = 16 << 20;

/// One client request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// The module's maintained annotation: its data examples (§4) as kept
    /// current by the live pipeline, or its generation error.
    AnnotateModule {
        /// Module id, as registered in the catalog.
        id: String,
    },
    /// Ranked substitutes for a module (§6), answered from the live verdict
    /// matrix (available modules) or the carried-forward capture taken at
    /// withdrawal (withdrawn ones).
    FindSubstitutes {
        /// Module id, as registered in the catalog.
        id: String,
    },
    /// Structural validation of a workflow against the current catalog and
    /// ontology, plus substitute suggestions for steps whose module is
    /// unavailable.
    ValidateWorkflow {
        /// The workflow to validate.
        workflow: Workflow,
    },
    /// Routes a batch of registry deltas through the incremental engine
    /// under the service's write lock.
    ApplyDelta {
        /// The batch, applied atomically with respect to readers.
        deltas: Vec<Delta>,
    },
    /// Service counters: queue, admission, cache, uptime.
    Stats,
    /// Asks the service to stop accepting work and wind down.
    Shutdown,
    /// Test-only fault injection: the handler panics while holding the
    /// pipeline lock (read side, or write side when `hold_write`), proving
    /// a worker panic can neither poison shared state nor leak admission
    /// tickets. Answered with an `Error` response, never a crash.
    Chaos {
        /// Panic under the write lock instead of the read lock.
        hold_write: bool,
    },
}

impl Request {
    /// Short endpoint label, used for telemetry metric names.
    pub fn endpoint(&self) -> &'static str {
        match self {
            Request::AnnotateModule { .. } => "annotate",
            Request::FindSubstitutes { .. } => "substitutes",
            Request::ValidateWorkflow { .. } => "validate",
            Request::ApplyDelta { .. } => "delta",
            Request::Stats => "stats",
            Request::Shutdown => "shutdown",
            Request::Chaos { .. } => "chaos",
        }
    }
}

/// One service response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Answer to [`Request::AnnotateModule`].
    Annotation(AnnotationReply),
    /// Answer to [`Request::FindSubstitutes`].
    Substitutes(SubstitutesReply),
    /// Answer to [`Request::ValidateWorkflow`].
    Validation(ValidationReply),
    /// Answer to [`Request::ApplyDelta`]: the engine's own accounting.
    DeltaApplied(DeltaReport),
    /// Answer to [`Request::Stats`].
    Stats(StatsReply),
    /// Backpressure: the admission limit is reached; retry later. The
    /// request was **not** queued.
    Busy,
    /// The service is winding down; no further requests will be served.
    ShuttingDown,
    /// The request could not be served (unknown module, malformed frame,
    /// handler panic…).
    Error {
        /// Human-readable cause.
        message: String,
    },
}

/// A module's maintained annotation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnnotationReply {
    /// The module asked about.
    pub id: String,
    /// Whether it is currently available (withdrawn modules keep their
    /// last-known annotation, frozen at withdrawal).
    pub available: bool,
    /// The data examples, when generation succeeded.
    pub examples: Option<ExampleSet>,
    /// The rendered generation error, when it did not.
    pub error: Option<String>,
    /// Invocations the generation spent when it was (re)computed.
    pub invocations: usize,
    /// Transient failures absorbed by the retry layer during generation.
    pub transient_failures: usize,
}

/// Ranked substitutes for one module.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubstitutesReply {
    /// The module asked about.
    pub id: String,
    /// Whether it is currently available.
    pub available: bool,
    /// Verdict-bearing comparisons behind the ranking.
    pub candidates_compared: usize,
    /// Usable candidates, best first (§6 study ordering). For withdrawn
    /// modules only the captured best survives.
    pub ranked: Vec<(String, MatchVerdict)>,
}

/// One workflow step referencing an unavailable module.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BrokenStep {
    /// Step index within the workflow.
    pub step: usize,
    /// The unavailable module.
    pub module: String,
    /// The best substitute the live state proposes, if any.
    pub substitute: Option<(String, MatchVerdict)>,
}

/// Validation outcome for one workflow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidationReply {
    /// The workflow's id.
    pub id: String,
    /// Rendered structural validation errors (empty when well-formed).
    pub structural_errors: Vec<String>,
    /// Steps whose module is currently unavailable, with suggestions.
    pub broken_steps: Vec<BrokenStep>,
    /// True when the workflow is well-formed and every step is available.
    pub ok: bool,
}

/// Service-level counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsReply {
    /// Milliseconds since the service finished bootstrapping.
    pub uptime_ms: u64,
    /// Modules tracked by the pipeline.
    pub modules_tracked: usize,
    /// Tracked modules currently available.
    pub modules_available: usize,
    /// Requests answered (any response but `Busy`).
    pub requests_served: u64,
    /// Requests rejected with `Busy` at admission.
    pub busy_rejections: u64,
    /// Requests currently queued.
    pub queue_depth: usize,
    /// Admission limit (queued + in service).
    pub queue_capacity: usize,
    /// Requests admitted and not yet answered.
    pub in_flight: usize,
    /// Fingerprint-bucket groups answered by the substitute-lookup batcher.
    pub batch_passes: u64,
    /// Substitute lookups batched into a group after its first lookup of
    /// the same fingerprint bucket (each still scans its own matrix row).
    pub coalesced_lookups: u64,
    /// `ApplyDelta` batches absorbed.
    pub deltas_applied: u64,
    /// Handler panics contained (each answered with an `Error` response).
    pub handler_panics: u64,
    /// Invocation-cache hits since bootstrap.
    pub cache_hits: u64,
    /// Invocation-cache misses since bootstrap.
    pub cache_misses: u64,
    /// Hit fraction in `[0, 1]`.
    pub cache_hit_rate: f64,
}

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {} bytes exceeds MAX_FRAME", payload.len()),
        ));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame. `UnexpectedEof` before the first length
/// byte means the peer closed cleanly between messages.
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("peer announced a {len}-byte frame (cap {MAX_FRAME})"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Serializes `value` and writes it as one frame.
pub fn write_message<T: Serialize>(w: &mut impl Write, value: &T) -> io::Result<()> {
    let json = serde_json::to_string(value)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    write_frame(w, json.as_bytes())
}

/// Reads one frame and parses it as `T`.
pub fn read_message<T: serde::Deserialize>(r: &mut impl Read) -> io::Result<T> {
    let payload = read_frame(r)?;
    let text = std::str::from_utf8(&payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    serde_json::from_str(text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_frames() {
        let requests = vec![
            Request::AnnotateModule { id: "m1".into() },
            Request::FindSubstitutes { id: "m2".into() },
            Request::ApplyDelta {
                deltas: vec![
                    Delta::ModuleWithdraw { id: "m3".into() },
                    Delta::ModuleRestore { id: "m3".into() },
                ],
            },
            Request::Stats,
            Request::Shutdown,
            Request::Chaos { hold_write: true },
        ];
        let mut buf = Vec::new();
        for r in &requests {
            write_message(&mut buf, r).unwrap();
        }
        let mut cursor = &buf[..];
        for expected in &requests {
            let got: Request = read_message(&mut cursor).unwrap();
            assert_eq!(&got, expected);
        }
        // Clean EOF after the last frame.
        assert!(read_message::<Request>(&mut cursor).is_err());
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        buf.extend_from_slice(b"junk");
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn deeply_nested_frame_is_invalid_data_not_a_stack_overflow() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "[".repeat(50_000).as_bytes()).unwrap();
        let err = read_message::<Request>(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// Bytes the JSON parser branches on, so generated payloads get past
    /// the first character.
    const JSON_BYTES: &[u8] = b"[]{}\",:0123456789.-+eEtrufalsn \\/\x00\xff";

    proptest::proptest! {
        #[test]
        fn arbitrary_bytes_never_panic_the_decoder(
            raw in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..512),
            picks in proptest::collection::vec(0..JSON_BYTES.len(), 0..512),
        ) {
            // As a raw stream: length prefix and payload both arbitrary.
            let _ = read_message::<Request>(&mut &raw[..]);
            // As well-framed payloads: arbitrary bytes, then JSON-ish bytes.
            let json_ish: Vec<u8> = picks.iter().map(|&i| JSON_BYTES[i]).collect();
            for payload in [&raw, &json_ish] {
                let mut buf = Vec::new();
                write_frame(&mut buf, payload).unwrap();
                let _ = read_message::<Request>(&mut &buf[..]);
            }
        }
    }

    #[test]
    fn responses_round_trip() {
        let resp = Response::Substitutes(SubstitutesReply {
            id: "m9".into(),
            available: false,
            candidates_compared: 3,
            ranked: vec![(
                "m10".into(),
                MatchVerdict::Overlapping {
                    agreeing: 2,
                    compared: 3,
                },
            )],
        });
        let mut buf = Vec::new();
        write_message(&mut buf, &resp).unwrap();
        let got: Response = read_message(&mut &buf[..]).unwrap();
        assert_eq!(got, resp);
        let busy = Response::Busy;
        let mut buf = Vec::new();
        write_message(&mut buf, &busy).unwrap();
        assert_eq!(read_message::<Response>(&mut &buf[..]).unwrap(), busy);
    }
}
