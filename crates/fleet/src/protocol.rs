//! The `vi-noc-fleet-v1` wire protocol: line-delimited JSON messages over a
//! local TCP stream.
//!
//! Every message is one compact JSON object on one line, with a `type`
//! member naming its variant. Multi-line payloads (job documents, frontier
//! files) cross the wire as JSON strings — `vi_noc_core::json_string`
//! escapes the newlines — so framing stays trivially line-based. Frontier
//! entries inside [`Message::Delta`] are embedded as raw JSON values: they
//! are compact single-line objects emitted by
//! `vi_noc_sweep::frontier_entry_json`, and re-serializing them with the
//! parse→write fixed-point writer ([`vi_noc_sweep::json::Value::to_json`])
//! preserves their bytes exactly, which is what the coordinator's
//! byte-identity guarantee rests on.
//!
//! Conversation shape (`W` = worker, `S` = submitter, `C` = coordinator):
//!
//! ```text
//! W→C  hello{role:"work"}              S→C  hello{role:"submit"}
//! W→C  request                         S→C  submit{job}
//! C→W  lease{..} | wait{..} | shutdown C→S  result{frontier} | reject{msg}
//! W→C  delta{..} | refuse{..}
//! C→W  ack{lease_id, done} | reject{msg}
//! ```
//!
//! Parse errors are pinned by `crates/fleet/tests/corpus.rs`: every
//! malformed message in the committed corpus must keep failing with its
//! exact recorded message.

use vi_noc_core::json_string;
use vi_noc_sweep::json::{self, Value};
use vi_noc_sweep::{stats_from_value, stats_json, SweepStats};

/// Protocol identifier exchanged in `hello` messages. Bump on any wire
/// change; a coordinator refuses peers speaking anything else.
pub const PROTOCOL: &str = "vi-noc-fleet-v1";

/// Role a connecting peer declares in its `hello`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The peer requests leases and streams deltas.
    Work,
    /// The peer submits one job and waits for its frontier.
    Submit,
}

impl Role {
    fn as_str(self) -> &'static str {
        match self {
            Role::Work => "work",
            Role::Submit => "submit",
        }
    }
}

/// One streamed checkpoint delta: the evaluation of range positions
/// `[from, from + taken)` of a lease — counters plus the *local* Pareto
/// survivors of exactly that interval. Deltas of one lease are disjoint by
/// construction, so the coordinator folds each exactly once.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// The lease this delta belongs to.
    pub lease_id: u64,
    /// Fingerprint of the grid the worker evaluated against
    /// ([`grid_fingerprint`]); a mismatch means descriptor skew.
    pub grid_fp: String,
    /// First range position the delta covers.
    pub from: u64,
    /// Number of range positions the delta covers.
    pub taken: u64,
    /// Evaluation counters of exactly this interval.
    pub stats: SweepStats,
    /// Serialized frontier entries surviving within this interval.
    pub entries: Vec<Value>,
}

/// A lease offer: evaluate chain ids `[start, end)` of the job's grid,
/// resuming at range position `from`, streaming a delta every
/// `checkpoint_every` positions.
#[derive(Debug, Clone, PartialEq)]
pub struct Lease {
    /// Coordinator-unique lease id; echoed in every delta.
    pub lease_id: u64,
    /// The job payload (a scenario document for the CLI fleet; resolvers
    /// decide what it means).
    pub job: String,
    /// Fingerprint the worker must reproduce from its resolved grid.
    pub grid_fp: String,
    /// First chain id of the leased range (inclusive).
    pub start: u64,
    /// One past the last chain id of the leased range.
    pub end: u64,
    /// Range position to resume from (0 for a fresh lease; the acked
    /// watermark for a re-issued one).
    pub from: u64,
    /// Delta granularity in range positions.
    pub checkpoint_every: u64,
}

/// Every message of the protocol. See the module docs for the conversation
/// shape.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Connection opener: protocol version + declared role.
    Hello(Role),
    /// Submitter: run this job, send me the frontier.
    Submit {
        /// The job payload.
        job: String,
    },
    /// Coordinator → submitter: the job's final frontier file.
    Result {
        /// Complete frontier file text.
        frontier: String,
    },
    /// Coordinator → peer: the request failed; the connection is done.
    Reject {
        /// Human-readable reason.
        message: String,
    },
    /// Worker: give me a lease.
    Request,
    /// Coordinator → worker: a lease offer.
    Lease(Lease),
    /// Coordinator → worker: nothing to lease right now; poll again.
    Wait {
        /// Suggested sleep before the next `request`, in milliseconds.
        poll_ms: u64,
    },
    /// Coordinator → worker: no more work will ever arrive; disconnect.
    Shutdown,
    /// Worker: a checkpoint delta of its active lease.
    Delta(Delta),
    /// Coordinator → worker: delta folded; `done` is the new watermark.
    Ack {
        /// The lease the ack belongs to.
        lease_id: u64,
        /// Range positions folded so far (`from + taken` of the delta).
        done: u64,
    },
    /// Worker: it cannot evaluate the lease (e.g. the payload resolves to
    /// a different grid than the coordinator's). Fails the whole job —
    /// descriptor skew is never recoverable by retrying.
    Refuse {
        /// The refused lease.
        lease_id: u64,
        /// Why the worker refused.
        message: String,
    },
}

/// Serializes a message as one line (no trailing newline; the transport
/// appends it).
pub fn write_message(m: &Message) -> String {
    match m {
        Message::Hello(role) => format!(
            "{{\"type\":\"hello\",\"protocol\":{},\"role\":\"{}\"}}",
            json_string(PROTOCOL),
            role.as_str()
        ),
        Message::Submit { job } => {
            format!("{{\"type\":\"submit\",\"job\":{}}}", json_string(job))
        }
        Message::Result { frontier } => format!(
            "{{\"type\":\"result\",\"frontier\":{}}}",
            json_string(frontier)
        ),
        Message::Reject { message } => format!(
            "{{\"type\":\"reject\",\"message\":{}}}",
            json_string(message)
        ),
        Message::Request => "{\"type\":\"request\"}".to_string(),
        Message::Lease(l) => format!(
            "{{\"type\":\"lease\",\"lease_id\":{},\"job\":{},\"grid_fp\":{},\"start\":{},\
             \"end\":{},\"from\":{},\"checkpoint_every\":{}}}",
            l.lease_id,
            json_string(&l.job),
            json_string(&l.grid_fp),
            l.start,
            l.end,
            l.from,
            l.checkpoint_every
        ),
        Message::Wait { poll_ms } => {
            format!("{{\"type\":\"wait\",\"poll_ms\":{poll_ms}}}")
        }
        Message::Shutdown => "{\"type\":\"shutdown\"}".to_string(),
        Message::Delta(d) => {
            let mut s = format!(
                "{{\"type\":\"delta\",\"lease_id\":{},\"grid_fp\":{},\"from\":{},\"taken\":{},\
                 \"stats\":{},\"entries\":[",
                d.lease_id,
                json_string(&d.grid_fp),
                d.from,
                d.taken,
                stats_json(&d.stats)
            );
            for (i, e) in d.entries.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&e.to_json());
            }
            s.push_str("]}");
            s
        }
        Message::Ack { lease_id, done } => {
            format!("{{\"type\":\"ack\",\"lease_id\":{lease_id},\"done\":{done}}}")
        }
        Message::Refuse { lease_id, message } => format!(
            "{{\"type\":\"refuse\",\"lease_id\":{},\"message\":{}}}",
            lease_id,
            json_string(message)
        ),
    }
}

fn field<'v>(v: &'v Value, key: &str, ctx: &str) -> Result<&'v Value, String> {
    v.get(key).ok_or_else(|| format!("{ctx}: missing '{key}'"))
}

fn u64_field(v: &Value, key: &str, ctx: &str) -> Result<u64, String> {
    field(v, key, ctx)?
        .as_u64()
        .ok_or_else(|| format!("{ctx}: '{key}' is not an unsigned integer"))
}

fn str_field<'v>(v: &'v Value, key: &str, ctx: &str) -> Result<&'v str, String> {
    field(v, key, ctx)?
        .as_str()
        .ok_or_else(|| format!("{ctx}: '{key}' is not a string"))
}

/// Parses one message line.
///
/// # Errors
///
/// Malformed JSON (`JSON error at byte N: ...`), a missing or unknown
/// `type`, and per-variant shape violations — each with the pinned message
/// the protocol corpus records.
pub fn parse_message(line: &str) -> Result<Message, String> {
    let v = json::parse(line).map_err(|e| e.to_string())?;
    let ty = str_field(&v, "type", "message")?;
    match ty {
        "hello" => {
            let protocol = str_field(&v, "protocol", "hello")?;
            if protocol != PROTOCOL {
                return Err(format!("hello: protocol '{protocol}' is not '{PROTOCOL}'"));
            }
            match str_field(&v, "role", "hello")? {
                "work" => Ok(Message::Hello(Role::Work)),
                "submit" => Ok(Message::Hello(Role::Submit)),
                other => Err(format!("hello: role '{other}' is not 'work' or 'submit'")),
            }
        }
        "submit" => Ok(Message::Submit {
            job: str_field(&v, "job", "submit")?.to_string(),
        }),
        "result" => Ok(Message::Result {
            frontier: str_field(&v, "frontier", "result")?.to_string(),
        }),
        "reject" => Ok(Message::Reject {
            message: str_field(&v, "message", "reject")?.to_string(),
        }),
        "request" => Ok(Message::Request),
        "lease" => Ok(Message::Lease(Lease {
            lease_id: u64_field(&v, "lease_id", "lease")?,
            job: str_field(&v, "job", "lease")?.to_string(),
            grid_fp: str_field(&v, "grid_fp", "lease")?.to_string(),
            start: u64_field(&v, "start", "lease")?,
            end: u64_field(&v, "end", "lease")?,
            from: u64_field(&v, "from", "lease")?,
            checkpoint_every: u64_field(&v, "checkpoint_every", "lease")?,
        })),
        "wait" => Ok(Message::Wait {
            poll_ms: u64_field(&v, "poll_ms", "wait")?,
        }),
        "shutdown" => Ok(Message::Shutdown),
        "delta" => {
            let lease_id = u64_field(&v, "lease_id", "delta")?;
            let grid_fp = str_field(&v, "grid_fp", "delta")?.to_string();
            let from = u64_field(&v, "from", "delta")?;
            let taken = u64_field(&v, "taken", "delta")?;
            let stats = stats_from_value(field(&v, "stats", "delta")?)?;
            let entries = match field(&v, "entries", "delta")? {
                Value::Arr(es) => es.clone(),
                _ => return Err("delta: 'entries' is not an array".to_string()),
            };
            Ok(Message::Delta(Delta {
                lease_id,
                grid_fp,
                from,
                taken,
                stats,
                entries,
            }))
        }
        "ack" => Ok(Message::Ack {
            lease_id: u64_field(&v, "lease_id", "ack")?,
            done: u64_field(&v, "done", "ack")?,
        }),
        "refuse" => Ok(Message::Refuse {
            lease_id: u64_field(&v, "lease_id", "refuse")?,
            message: str_field(&v, "message", "refuse")?.to_string(),
        }),
        other => Err(format!("message: unknown type '{other}'")),
    }
}

/// 64-bit FNV-1a fingerprint of a serialized grid descriptor, as 16 lower
/// hex digits. Workers reproduce it from their own resolved grid; a
/// mismatch anywhere in the conversation means the coordinator and worker
/// disagree about what is being swept, and fails fast instead of folding
/// entries of the wrong grid.
pub fn grid_fingerprint(desc_json: &str) -> String {
    format!("{:016x}", vi_noc_core::fnv1a64(desc_json.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(m: Message) {
        let line = write_message(&m);
        assert!(!line.contains('\n'), "one line: {line}");
        assert_eq!(parse_message(&line).unwrap(), m, "{line}");
    }

    #[test]
    fn every_variant_round_trips_through_the_wire() {
        round_trip(Message::Hello(Role::Work));
        round_trip(Message::Hello(Role::Submit));
        round_trip(Message::Submit {
            job: "{\"scenario\":{\n \"name\":\"x\"}}".to_string(),
        });
        round_trip(Message::Result {
            frontier: "{\"format\":\"f\",\n\"frontier\":[\n]}\n".to_string(),
        });
        round_trip(Message::Reject {
            message: "no \"such\" job".to_string(),
        });
        round_trip(Message::Request);
        round_trip(Message::Lease(Lease {
            lease_id: 7,
            job: "{}".to_string(),
            grid_fp: "00ff00ff00ff00ff".to_string(),
            start: 32,
            end: 48,
            from: 3,
            checkpoint_every: 8,
        }));
        round_trip(Message::Wait { poll_ms: 50 });
        round_trip(Message::Shutdown);
        round_trip(Message::Delta(Delta {
            lease_id: 7,
            grid_fp: "00ff00ff00ff00ff".to_string(),
            from: 3,
            taken: 8,
            stats: SweepStats {
                chains: 8,
                inactive_chains: 0,
                feasible: 21,
                duplicates: 2,
                infeasible: 1,
            },
            entries: vec![vi_noc_sweep::json::parse("{\"ordinal\":4,\"power_mw\":1.5}").unwrap()],
        }));
        round_trip(Message::Ack {
            lease_id: 7,
            done: 11,
        });
        round_trip(Message::Refuse {
            lease_id: 7,
            message: "grid fingerprint mismatch".to_string(),
        });
    }

    #[test]
    fn delta_entry_bytes_survive_the_round_trip() {
        let entry = "{\"ordinal\":12,\"power_mw\":88.25,\"latency_cycles\":5.5,\"chain_id\":4,\
                     \"scale\":1,\"boosts\":[0,1],\"point\":{\"x\":[1,2,3]}}";
        let m = Message::Delta(Delta {
            lease_id: 1,
            grid_fp: "0".repeat(16),
            from: 0,
            taken: 4,
            stats: SweepStats::default(),
            entries: vec![vi_noc_sweep::json::parse(entry).unwrap()],
        });
        let line = write_message(&m);
        match parse_message(&line).unwrap() {
            Message::Delta(d) => assert_eq!(d.entries[0].to_json(), entry),
            other => panic!("not a delta: {other:?}"),
        }
    }

    #[test]
    fn fingerprints_are_stable_and_discriminating() {
        // Pinned: FNV-1a 64 of the empty string and a known vector. If
        // these move, every committed corpus fixture's grid_fp is stale.
        assert_eq!(grid_fingerprint(""), "cbf29ce484222325");
        assert_eq!(grid_fingerprint("a"), "af63dc4c8601ec8c");
        assert_ne!(
            grid_fingerprint("{\"num_chains\":8}"),
            grid_fingerprint("{\"num_chains\":9}")
        );
    }

    #[test]
    fn parse_rejects_shape_violations_with_contexted_messages() {
        for (line, want) in [
            ("{", "JSON error at byte"),
            (
                "{\"protocol\":\"vi-noc-fleet-v1\"}",
                "message: missing 'type'",
            ),
            ("{\"type\":7}", "message: 'type' is not a string"),
            ("{\"type\":\"gossip\"}", "message: unknown type 'gossip'"),
            (
                "{\"type\":\"hello\",\"protocol\":\"v0\",\"role\":\"work\"}",
                "hello: protocol 'v0' is not 'vi-noc-fleet-v1'",
            ),
            (
                "{\"type\":\"hello\",\"protocol\":\"vi-noc-fleet-v1\",\"role\":\"lurk\"}",
                "hello: role 'lurk' is not 'work' or 'submit'",
            ),
            ("{\"type\":\"wait\"}", "wait: missing 'poll_ms'"),
            (
                "{\"type\":\"ack\",\"lease_id\":1,\"done\":-2}",
                "ack: 'done' is not an unsigned integer",
            ),
        ] {
            let err = parse_message(line).unwrap_err();
            assert!(err.contains(want), "{line} -> {err}");
        }
    }
}
