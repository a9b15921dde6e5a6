//! The versioned line-delimited JSON wire protocol.
//!
//! Every request is one line of JSON and gets exactly one line of JSON
//! back (JSON escapes embedded newlines, so framing never breaks):
//!
//! ```text
//! -> {"v": 1, "id": 7, "method": "synth", "params": {...}, "deadline_ms": 500}
//! <- {"v": 1, "id": 7, "ok": true, "result": {...}}
//! <- {"v": 1, "id": 7, "ok": false, "error": {"kind": "overloaded",
//!        "message": "...", "retry_after_ms": 100}}
//! ```
//!
//! `id` is echoed verbatim (any JSON value; `null` when a request was
//! too malformed to carry one), `params` defaults to `null`, and
//! `deadline_ms` is an optional per-request latency budget measured from
//! the moment the server reads the line. `docs/protocol.md` documents
//! the method set and per-method params/result shapes.

use serde::{map_get, Value};

/// The wire protocol version this crate speaks.
pub const PROTOCOL_VERSION: u64 = 1;

/// The machine-readable failure classes of an error response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request was malformed: bad JSON, wrong version, unknown
    /// method, or invalid params.
    BadRequest,
    /// The admission queue is full; retry after `retry_after_ms`.
    Overloaded,
    /// The request's `deadline_ms` expired before a result was ready.
    DeadlineExceeded,
    /// The server failed internally (a worker panicked).
    Internal,
    /// The server is shutting down and no longer takes work.
    Shutdown,
}

impl ErrorKind {
    /// The wire spelling of the kind.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::Internal => "internal",
            ErrorKind::Shutdown => "shutdown",
        }
    }
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The client's correlation id, echoed verbatim in the response.
    pub id: Value,
    /// The method name (`ping`, `synth`, `batch`, ...).
    pub method: String,
    /// Method parameters (`Value::Null` when omitted).
    pub params: Value,
    /// Optional latency budget in milliseconds, measured from receipt.
    pub deadline_ms: Option<u64>,
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a human-readable message (for a `bad_request` response) when
/// the line is not JSON, not a map, carries the wrong `v`, or has a
/// missing or non-string `method`.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let doc: Value =
        serde_json::from_str(line).map_err(|e| format!("request is not valid JSON: {e}"))?;
    let Value::Map(mut entries) = doc else {
        return Err("request must be a JSON object".to_owned());
    };
    match map_get(&entries, "v") {
        Some(Value::UInt(v)) if *v == PROTOCOL_VERSION => {}
        Some(Value::Int(v)) if *v == PROTOCOL_VERSION as i64 => {}
        Some(other) => {
            return Err(format!(
                "unsupported protocol version {other:?} (this server speaks v{PROTOCOL_VERSION})"
            ))
        }
        None => {
            return Err(format!(
                "request is missing \"v\" (this server speaks v{PROTOCOL_VERSION})"
            ))
        }
    }
    let method = match map_get(&entries, "method") {
        Some(Value::Str(m)) => m.clone(),
        Some(_) => return Err("\"method\" must be a string".to_owned()),
        None => return Err("request is missing \"method\"".to_owned()),
    };
    let deadline_ms = match map_get(&entries, "deadline_ms") {
        None | Some(Value::Null) => None,
        Some(Value::UInt(ms)) => Some(*ms),
        Some(Value::Int(ms)) if *ms >= 0 => Some(*ms as u64),
        Some(_) => return Err("\"deadline_ms\" must be a non-negative integer".to_owned()),
    };
    Ok(Request {
        id: take(&mut entries, "id"),
        method,
        params: take(&mut entries, "params"),
        deadline_ms,
    })
}

/// Moves the value of `key`'s first entry (the one [`map_get`] finds)
/// out of a parsed map; `Value::Null` when the key is absent.
fn take(entries: &mut [(Value, Value)], key: &str) -> Value {
    entries
        .iter_mut()
        .find(|(k, _)| k.as_str() == Some(key))
        .map_or(Value::Null, |(_, v)| std::mem::replace(v, Value::Null))
}

/// Serializes one success response line (no trailing newline).
#[must_use]
pub fn ok_line(id: &Value, result: Value) -> String {
    let doc = Value::Map(vec![
        (key("v"), Value::UInt(PROTOCOL_VERSION)),
        (key("id"), id.clone()),
        (key("ok"), Value::Bool(true)),
        (key("result"), result),
    ]);
    // rchls-lint: allow(panic-in-serve, reason = "the vendored serializer is infallible on self-built values; a panic here is a shim bug, not request input")
    serde_json::to_string(&doc).expect("responses serialize")
}

/// Serializes one error response line (no trailing newline).
#[must_use]
pub fn error_line(
    id: &Value,
    kind: ErrorKind,
    message: &str,
    retry_after_ms: Option<u64>,
) -> String {
    let mut error = vec![
        (key("kind"), Value::Str(kind.as_str().to_owned())),
        (key("message"), Value::Str(message.to_owned())),
    ];
    if let Some(ms) = retry_after_ms {
        error.push((key("retry_after_ms"), Value::UInt(ms)));
    }
    let doc = Value::Map(vec![
        (key("v"), Value::UInt(PROTOCOL_VERSION)),
        (key("id"), id.clone()),
        (key("ok"), Value::Bool(false)),
        (key("error"), Value::Map(error)),
    ]);
    // rchls-lint: allow(panic-in-serve, reason = "the vendored serializer is infallible on self-built values; a panic here is a shim bug, not request input")
    serde_json::to_string(&doc).expect("responses serialize")
}

/// Builds one request line (no trailing newline) — the client side of
/// [`parse_request`].
#[must_use]
pub fn request_line(
    id: u64,
    method: &str,
    params: Option<&Value>,
    deadline_ms: Option<u64>,
) -> String {
    let mut doc = vec![
        (key("v"), Value::UInt(PROTOCOL_VERSION)),
        (key("id"), Value::UInt(id)),
        (key("method"), Value::Str(method.to_owned())),
    ];
    if let Some(p) = params {
        doc.push((key("params"), p.clone()));
    }
    if let Some(ms) = deadline_ms {
        doc.push((key("deadline_ms"), Value::UInt(ms)));
    }
    // rchls-lint: allow(panic-in-serve, reason = "client-side line building from self-built values; never runs in the daemon's request path")
    serde_json::to_string(&Value::Map(doc)).expect("requests serialize")
}

fn key(k: &str) -> Value {
    Value::Str(k.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_round_trip() {
        let params = Value::Map(vec![(key("workload"), key("builtin:fir16"))]);
        let line = request_line(7, "synth", Some(&params), Some(500));
        assert!(!line.contains('\n'));
        let req = parse_request(&line).unwrap();
        assert_eq!(req.id, Value::UInt(7));
        assert_eq!(req.method, "synth");
        assert_eq!(req.params, params);
        assert_eq!(req.deadline_ms, Some(500));
        // Params and deadline are optional; the id defaults to null.
        let req = parse_request(r#"{"v": 1, "method": "ping"}"#).unwrap();
        assert_eq!(req.id, Value::Null);
        assert_eq!(req.params, Value::Null);
        assert_eq!(req.deadline_ms, None);
        // A repeated key reads its first occurrence, as `map_get` does.
        let req = parse_request(
            r#"{"v": 1, "id": 1, "params": [2], "id": 3, "params": 4, "method": "ping"}"#,
        )
        .unwrap();
        assert_eq!(req.id, Value::UInt(1));
        assert_eq!(req.params, Value::Seq(vec![Value::UInt(2)]));
        // A UTF-16 surrogate-pair escape (what Python's `json.dumps`
        // sends for non-BMP text) decodes to one char.
        let req = parse_request(r#"{"v": 1, "id": "\ud83d\ude00", "method": "ping"}"#).unwrap();
        assert_eq!(req.id, Value::Str("\u{1f600}".to_owned()));
    }

    #[test]
    fn malformed_requests_report_clearly() {
        assert!(parse_request("not json").unwrap_err().contains("JSON"));
        assert!(parse_request("[1]").unwrap_err().contains("object"));
        assert!(parse_request(r#"{"method": "ping"}"#)
            .unwrap_err()
            .contains("\"v\""));
        assert!(parse_request(r#"{"v": 2, "method": "ping"}"#)
            .unwrap_err()
            .contains("version"));
        assert!(parse_request(r#"{"v": 1}"#).unwrap_err().contains("method"));
        assert!(parse_request(r#"{"v": 1, "method": 9}"#)
            .unwrap_err()
            .contains("string"));
        assert!(
            parse_request(r#"{"v": 1, "method": "ping", "deadline_ms": -4}"#)
                .unwrap_err()
                .contains("deadline_ms")
        );
    }

    #[test]
    fn response_lines_carry_the_id_and_error_shape() {
        let ok = ok_line(&Value::UInt(3), Value::Bool(true));
        assert!(
            ok.contains("\"ok\": true") || ok.contains("\"ok\":true"),
            "{ok}"
        );
        assert!(ok.contains('3'));
        let err = error_line(&Value::Null, ErrorKind::Overloaded, "queue full", Some(100));
        assert!(err.contains("overloaded"));
        assert!(err.contains("retry_after_ms"));
        assert!(err.contains("queue full"));
        let err = error_line(&Value::Null, ErrorKind::BadRequest, "nope", None);
        assert!(!err.contains("retry_after_ms"));
        assert!(err.contains("bad_request"));
    }
}
