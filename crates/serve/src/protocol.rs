//! The newline-JSON wire protocol spoken between `hotnoc serve` and its
//! clients.
//!
//! Each request is one JSON object per line; each response is one or more
//! JSON object lines. A response line is **terminal** (last line of its
//! request's response) unless it carries a `"job"` field — campaigns
//! stream one `"job"` record per expanded scenario before their terminal
//! summary line. Every response carries a `"status"` field following the
//! CLI exit-code convention: `0` success, `1` runtime failure (with
//! `"retryable": true` when a drain or a full connection queue rejected
//! the request), `2` bad input.
//! The normative reference is `docs/SERVING.md`.

use hotnoc_scenario::campaign::CampaignSpec;
use hotnoc_scenario::json::Json;
use hotnoc_scenario::spec::ScenarioSpec;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;

/// Schema tag of the daemon's result-persistence journal.
pub const JOURNAL_SCHEMA: &str = "hotnoc-serve-journal-v1";

/// A bidirectional byte stream — the unix/tcp abstraction both protocol
/// ends run over.
pub trait Stream: Read + Write + Send {}
impl Stream for UnixStream {}
impl Stream for TcpStream {}

/// Where a daemon listens and a client connects.
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// A unix-domain socket at this path.
    Unix(PathBuf),
    /// A TCP socket at this `addr:port`.
    Tcp(String),
}

impl Endpoint {
    /// Connects a client stream to the endpoint.
    ///
    /// # Errors
    ///
    /// Propagates connection failures (no daemon, bad address, ...).
    pub fn connect(&self) -> std::io::Result<Box<dyn Stream>> {
        Ok(match self {
            Endpoint::Unix(path) => Box::new(UnixStream::connect(path)?),
            Endpoint::Tcp(addr) => Box::new(TcpStream::connect(addr.as_str())?),
        })
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

/// One parsed request line.
#[derive(Debug)]
pub enum Request {
    /// Liveness probe; answered with `{"status": 0, "pong": true}`.
    Ping,
    /// Begin a graceful drain: in-flight jobs finish and journal, new
    /// submissions are rejected as retryable, the daemon then exits 0.
    Shutdown,
    /// Run one spec (or answer it from the result cache). The submission
    /// is boxed so the op-only variants don't pay for a full spec's size.
    Submit {
        /// Client-chosen correlation id, echoed on every response line.
        id: String,
        /// What to run.
        submission: Box<Submission>,
    },
}

/// The payload of a submit request, classified by the presence of the
/// campaign `"schema"` field (scenario specs carry no schema tag).
#[derive(Debug)]
pub enum Submission {
    /// One scenario.
    Scenario(ScenarioSpec),
    /// A campaign (`"schema": "hotnoc-campaign-spec-v1"`).
    Campaign(CampaignSpec),
}

impl Submission {
    /// The result-cache key: `(canonical-JSON FNV-1a fingerprint, seed)`.
    pub fn key(&self) -> (String, u64) {
        match self {
            Submission::Scenario(s) => (s.fingerprint(), s.seed),
            Submission::Campaign(c) => (c.fingerprint(), c.seed),
        }
    }

    /// The spec's name (labels cache-hit trace events and log lines).
    pub fn name(&self) -> &str {
        match self {
            Submission::Scenario(s) => &s.name,
            Submission::Campaign(c) => &c.name,
        }
    }
}

/// Decodes a parsed request object. Syntax errors are the caller's
/// problem ([`Json::parse`] first); this layer rejects shape violations —
/// unknown ops, a missing id, an undecodable or invalid spec.
///
/// # Errors
///
/// Returns a description of the first violation (a status-2 response).
pub fn decode_request(j: &Json) -> Result<Request, String> {
    if let Some(op) = j.get("op") {
        return match op.as_str() {
            Some("ping") => Ok(Request::Ping),
            Some("shutdown") => Ok(Request::Shutdown),
            Some(other) => Err(format!(
                r#"unknown op {other:?} (want "ping" or "shutdown")"#
            )),
            None => Err(r#"field "op" is not a string"#.to_string()),
        };
    }
    let id = j.req_str("id")?.to_string();
    let spec = j.req("submit")?;
    // Both decoders validate semantically, not just structurally.
    let submission = if spec.get("schema").is_some() {
        Submission::Campaign(CampaignSpec::from_json(spec)?)
    } else {
        Submission::Scenario(ScenarioSpec::from_json(spec)?)
    };
    Ok(Request::Submit {
        id,
        submission: Box::new(submission),
    })
}

/// Renders one response line: the `id` (when known) followed by the
/// payload fields, in canonical JSON. Identical payload + identical id ⇒
/// identical bytes — the serving layer's `cmp`-ability contract.
pub fn response_line(id: Option<&str>, fields: &[(String, Json)]) -> String {
    let mut all: Vec<(String, Json)> = Vec::with_capacity(fields.len() + 1);
    if let Some(id) = id {
        all.push(("id".to_string(), Json::str(id)));
    }
    all.extend(fields.iter().cloned());
    Json::Object(all).to_string()
}

/// Whether a response line ends its request's response: every line except
/// a campaign's per-job records (which carry a `"job"` field). Unparsable
/// lines are treated as terminal so a confused client stops reading.
pub fn is_terminal(line: &str) -> bool {
    Json::parse(line).map_or(true, |j| j.get("job").is_none())
}

/// Error-response payload fields.
pub fn error_fields(status: u64, error: &str, retryable: bool) -> Vec<(String, Json)> {
    let mut fields = vec![
        ("status".to_string(), Json::int(status)),
        ("error".to_string(), Json::str(error)),
    ];
    if retryable {
        fields.push(("retryable".to_string(), Json::Bool(true)));
    }
    fields
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCENARIO: &str = r#"{
        "name": "p-one",
        "chip": {"config": "A"},
        "workload": {"kind": "traffic", "pattern": "uniform", "rate": 0.05, "packet_len": 2, "cycles": 100},
        "policy": {"kind": "baseline"},
        "mode": "cosim",
        "fidelity": "quick",
        "seed": 4
    }"#;

    fn parse(line: &str) -> Result<Request, String> {
        decode_request(&Json::parse(line).expect("syntactically valid"))
    }

    #[test]
    fn ops_parse_and_unknown_ops_are_rejected() {
        assert!(matches!(parse(r#"{"op": "ping"}"#), Ok(Request::Ping)));
        assert!(matches!(
            parse(r#"{"op": "shutdown"}"#),
            Ok(Request::Shutdown)
        ));
        assert!(parse(r#"{"op": "reboot"}"#).unwrap_err().contains("reboot"));
        assert!(parse(r#"{"op": 3}"#).is_err());
    }

    #[test]
    fn submissions_classify_by_schema_field() {
        let line = format!(r#"{{"id": "r1", "submit": {SCENARIO}}}"#);
        let Ok(Request::Submit { id, submission }) = parse(&line) else {
            panic!("expected a submit request");
        };
        assert_eq!(id, "r1");
        assert!(matches!(*submission, Submission::Scenario(_)));
        assert_eq!(submission.name(), "p-one");
        let (fp, seed) = submission.key();
        assert_eq!(fp.len(), 16);
        assert_eq!(seed, 4);

        // A schema field routes to the campaign decoder — which then
        // rejects this shape, rather than misreading it as a scenario.
        let tagged = SCENARIO.replacen('{', r#"{"schema": "hotnoc-campaign-spec-v1","#, 1);
        let line = format!(r#"{{"id": "r2", "submit": {tagged}}}"#);
        assert!(parse(&line).is_err());
    }

    #[test]
    fn submit_requires_an_id_and_a_valid_spec() {
        let no_id = format!(r#"{{"submit": {SCENARIO}}}"#);
        assert!(parse(&no_id).unwrap_err().contains("id"));
        let bad_spec = r#"{"id": "r1", "submit": {"name": "x"}}"#;
        assert!(parse(bad_spec).is_err());
    }

    #[test]
    fn response_lines_render_canonically_and_classify_terminality() {
        let fields = error_fields(1, "draining", true);
        let line = response_line(Some("r9"), &fields);
        assert_eq!(
            line,
            r#"{"id": "r9", "status": 1, "error": "draining", "retryable": true}"#
        );
        assert!(is_terminal(&line));
        let job = response_line(
            Some("r9"),
            &[
                ("job".to_string(), Json::int(0)),
                ("status".to_string(), Json::int(0)),
            ],
        );
        assert!(!is_terminal(&job));
        assert!(is_terminal("not json at all"));
    }
}
