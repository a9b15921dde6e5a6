//! A minimal blocking client for the wire protocol — what `rchls
//! request` and the tests speak through.

use crate::protocol;
use serde::Value;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// The backoff base when a retryable failure carries no
/// `retry_after_ms` hint (transport errors, hintless rejections).
const DEFAULT_BACKOFF_MS: u64 = 50;

/// The backoff ceiling: no retry ever waits longer than this.
const BACKOFF_CAP_MS: u64 = 2_000;

/// One connection to a running `rchls serve` daemon.
///
/// Requests on a connection are answered in order; open one client per
/// thread for concurrency.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    next_id: u64,
    addr: String,
    timeout: Duration,
}

impl Client {
    /// Connects with a 30-second response timeout.
    ///
    /// # Errors
    ///
    /// Returns the connect error.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        Client::connect_with_timeout(addr, Duration::from_secs(30))
    }

    /// Connects with an explicit response timeout.
    ///
    /// # Errors
    ///
    /// Returns the connect or socket-option error.
    pub fn connect_with_timeout(addr: &str, timeout: Duration) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            stream,
            buf: Vec::new(),
            next_id: 1,
            addr: addr.to_owned(),
            timeout,
        })
    }

    /// Replaces a dead connection with a fresh one to the same address,
    /// discarding any half-read response bytes. Request ids keep
    /// counting up.
    fn reconnect(&mut self) -> std::io::Result<()> {
        let fresh = Client::connect_with_timeout(&self.addr, self.timeout)?;
        self.stream = fresh.stream;
        self.buf.clear();
        Ok(())
    }

    /// Sends one method call and returns the parsed response document
    /// (`{"v": 1, "id": ..., "ok": ..., ...}`). Server-side failures are
    /// still `Ok` here — inspect the document's `ok`/`error` fields.
    ///
    /// # Errors
    ///
    /// Returns an I/O error when the connection drops or times out, or
    /// `InvalidData` when the response line is not JSON.
    pub fn call(
        &mut self,
        method: &str,
        params: Option<&Value>,
        deadline_ms: Option<u64>,
    ) -> std::io::Result<Value> {
        let id = self.next_id;
        self.next_id += 1;
        let line = protocol::request_line(id, method, params, deadline_ms);
        let response = self.roundtrip(&line)?;
        serde_json::from_str(&response).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("response is not JSON: {e}"),
            )
        })
    }

    /// [`Client::call`], retried up to `retries` extra times on
    /// retryable failures: transport errors (the connection is
    /// re-established), `overloaded` rejections, and `shutdown`
    /// rejections (the daemon closes those connections, so the retry
    /// reconnects — reaching a restarted daemon or failing cleanly).
    ///
    /// Backoff is a deterministic capped exponential — no jitter, no
    /// clock reads: the server's `retry_after_ms` hint (or 50 ms when
    /// absent) doubles per attempt, capped at 2000 ms. Non-retryable
    /// errors (`bad_request`,
    /// `deadline_exceeded`, `internal`) return immediately.
    ///
    /// # Errors
    ///
    /// Returns the final transport error when every attempt failed to
    /// complete a round trip.
    pub fn call_with_retries(
        &mut self,
        method: &str,
        params: Option<&Value>,
        deadline_ms: Option<u64>,
        retries: u32,
    ) -> std::io::Result<Value> {
        let mut attempt: u32 = 0;
        let mut needs_reconnect = false;
        loop {
            let outcome = if needs_reconnect {
                self.reconnect().and_then(|()| {
                    needs_reconnect = false;
                    self.call(method, params, deadline_ms)
                })
            } else {
                self.call(method, params, deadline_ms)
            };
            let base = match &outcome {
                Ok(doc) => match response_error_kind(doc) {
                    Some(kind @ ("overloaded" | "shutdown")) => {
                        if kind == "shutdown" {
                            needs_reconnect = true;
                        }
                        response_retry_after_ms(doc).unwrap_or(DEFAULT_BACKOFF_MS)
                    }
                    _ => return outcome,
                },
                Err(_) => {
                    needs_reconnect = true;
                    DEFAULT_BACKOFF_MS
                }
            };
            if attempt >= retries {
                return outcome;
            }
            let factor = 1u64 << attempt.min(5);
            std::thread::sleep(Duration::from_millis(
                base.saturating_mul(factor).min(BACKOFF_CAP_MS),
            ));
            attempt += 1;
        }
    }

    /// Sends one raw line (newline appended if missing) and returns the
    /// raw response line.
    ///
    /// # Errors
    ///
    /// Returns an I/O error when the connection drops or times out.
    pub fn roundtrip(&mut self, line: &str) -> std::io::Result<String> {
        // One write for line and newline: under `TCP_NODELAY` each write
        // goes out as a segment of its own.
        if line.ends_with('\n') {
            self.stream.write_all(line.as_bytes())?;
        } else {
            self.stream.write_all(format!("{line}\n").as_bytes())?;
        }
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.buf.drain(..=pos).collect();
                return Ok(String::from_utf8_lossy(&line[..pos]).into_owned());
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk)? {
                0 => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed the connection mid-response",
                    ))
                }
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        }
    }
}

/// Extracts `result` from a response document when `ok` is true.
#[must_use]
pub fn response_result(doc: &Value) -> Option<&Value> {
    let entries = doc.as_map()?;
    match serde::map_get(entries, "ok") {
        Some(Value::Bool(true)) => serde::map_get(entries, "result"),
        _ => None,
    }
}

/// Extracts the error `kind` from a response document when `ok` is
/// false.
#[must_use]
pub fn response_error_kind(doc: &Value) -> Option<&str> {
    let entries = doc.as_map()?;
    match serde::map_get(entries, "ok") {
        Some(Value::Bool(false)) => serde::map_get(entries, "error")?
            .as_map()
            .and_then(|e| serde::map_get(e, "kind"))
            .and_then(Value::as_str),
        _ => None,
    }
}

/// Extracts the server's `retry_after_ms` hint from a rejection
/// document, when present.
#[must_use]
pub fn response_retry_after_ms(doc: &Value) -> Option<u64> {
    let entries = doc.as_map()?;
    let error = serde::map_get(entries, "error")?.as_map()?;
    match serde::map_get(error, "retry_after_ms")? {
        Value::UInt(ms) => Some(*ms),
        Value::Int(ms) if *ms >= 0 => Some(*ms as u64),
        _ => None,
    }
}
