//! Daemon configuration: bind address, worker count, admission queue,
//! and the session cache budget.

use rchls_core::CacheBudget;
use rchls_reslib::Library;
use std::fmt::Write as _;
use std::net::SocketAddr;

/// Everything `rchls serve` needs besides the resource library.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// The `ip:port` to bind (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// The most synthesis threads the engine's worker pool runs, shared
    /// by every request (`0` = one per CPU).
    pub jobs: usize,
    /// Maximum queued heavy requests; anything beyond is rejected with
    /// a structured `overloaded` error instead of waiting.
    pub queue_depth: usize,
    /// The byte budget shared by all four engine cache layers.
    pub cache_budget: CacheBudget,
    /// Directory of the persistent result store backing the in-memory
    /// cache (`None` = memory-only, the historical behavior). Results
    /// survive restarts; a corrupt store entry is quarantined and
    /// recomputed, never served.
    pub store: Option<String>,
    /// Maximum simultaneous client connections; further connections get
    /// one structured `overloaded` rejection line and are closed.
    pub max_conns: usize,
    /// How long a *started* request line may sit incomplete (no
    /// terminating newline) before the connection is closed. Idle
    /// connections (nothing buffered) never time out.
    pub read_timeout_ms: u64,
    /// How long one response write may block on a stalled client before
    /// the connection is closed.
    pub write_timeout_ms: u64,
    /// How long shutdown waits for queued and in-flight work to finish
    /// before answering the remainder with `shutdown` errors.
    pub drain_timeout_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:7411".to_owned(),
            jobs: 0,
            queue_depth: 64,
            cache_budget: CacheBudget::UNLIMITED,
            store: None,
            max_conns: 256,
            read_timeout_ms: 30_000,
            write_timeout_ms: 30_000,
            drain_timeout_ms: 5_000,
        }
    }
}

impl ServeConfig {
    /// The most threads the worker pool will run (`jobs`, with `0`
    /// resolved as the engine resolves it: one per CPU).
    #[must_use]
    pub fn effective_jobs(&self) -> usize {
        rchls_core::engine::worker_count(self.jobs)
    }

    /// Checks the configuration without binding anything.
    /// [`Server::start`](crate::Server::start) runs it before it binds.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when `addr` is not an explicit
    /// `ip:port` socket address, or a queue depth, connection cap or I/O
    /// timeout is zero.
    pub fn validate(&self) -> Result<(), String> {
        self.addr.parse::<SocketAddr>().map_err(|_| {
            format!(
                "invalid listen address {:?} (expected ip:port, e.g. 127.0.0.1:7411)",
                self.addr
            )
        })?;
        if self.queue_depth == 0 {
            // Admission rejects at `queue_depth` queued requests, so a
            // zero depth would answer every heavy request `overloaded`.
            return Err("--queue-depth must be at least 1".to_owned());
        }
        if self.max_conns == 0 {
            return Err("--max-conns must be at least 1".to_owned());
        }
        if self.read_timeout_ms == 0 || self.write_timeout_ms == 0 {
            return Err(
                "--read-timeout-ms and --write-timeout-ms must be at least 1 \
                 (use a large value to effectively disable)"
                    .to_owned(),
            );
        }
        Ok(())
    }

    /// The `rchls serve --check` dry-run rendering: the effective
    /// configuration, defaults resolved, without binding a socket.
    #[must_use]
    pub fn render(&self, library: &Library) -> String {
        let mut out = String::from("rchls serve configuration (dry run, nothing bound):\n");
        let _ = writeln!(out, "  addr          {}", self.addr);
        let _ = writeln!(
            out,
            "  jobs          {} synthesis threads at most, one pool for every request{}",
            self.effective_jobs(),
            if self.jobs == 0 { " (one per CPU)" } else { "" }
        );
        let _ = writeln!(
            out,
            "  queue depth   {} queued requests (beyond that: overloaded rejection)",
            self.queue_depth
        );
        let _ = writeln!(
            out,
            "  max conns     {} simultaneous connections (beyond that: overloaded rejection)",
            self.max_conns
        );
        let _ = writeln!(
            out,
            "  timeouts      read {} ms (mid-line stalls) / write {} ms / drain {} ms",
            self.read_timeout_ms, self.write_timeout_ms, self.drain_timeout_ms
        );
        let _ = writeln!(out, "  cache budget  {}", self.cache_budget);
        let _ = writeln!(
            out,
            "  store         {}",
            self.store
                .as_deref()
                .unwrap_or("none (in-memory caches only)")
        );
        let _ = writeln!(out, "  library       {} resource versions", library.len());
        let _ = writeln!(
            out,
            "  protocol      v{} line-delimited JSON (see docs/protocol.md)",
            crate::protocol::PROTOCOL_VERSION
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_the_listen_address() {
        let mut config = ServeConfig::default();
        assert_eq!(config.validate(), Ok(()));
        config.addr = "localhost:7411".to_owned();
        assert!(config.validate().unwrap_err().contains("localhost"));
        config.addr = "not an address".to_owned();
        assert!(config.validate().is_err());
    }

    #[test]
    fn validates_connection_and_timeout_knobs() {
        let mut config = ServeConfig {
            queue_depth: 0,
            ..ServeConfig::default()
        };
        assert!(config.validate().unwrap_err().contains("--queue-depth"));
        config.queue_depth = 1;
        config.max_conns = 0;
        assert!(config.validate().unwrap_err().contains("--max-conns"));
        config.max_conns = 1;
        config.read_timeout_ms = 0;
        assert!(config.validate().unwrap_err().contains("read-timeout"));
        config.read_timeout_ms = 1;
        config.write_timeout_ms = 0;
        assert!(config.validate().is_err());
        config.write_timeout_ms = 1;
        config.drain_timeout_ms = 0; // allowed: drop queued work at shutdown
        assert_eq!(config.validate(), Ok(()));
    }

    #[test]
    fn render_shows_the_effective_configuration() {
        let config = ServeConfig {
            addr: "127.0.0.1:7411".to_owned(),
            jobs: 3,
            queue_depth: 9,
            cache_budget: CacheBudget::limited(64 << 10),
            store: Some("/tmp/rchls-store".to_owned()),
            max_conns: 17,
            read_timeout_ms: 1_500,
            write_timeout_ms: 2_500,
            drain_timeout_ms: 3_500,
        };
        let out = config.render(&Library::table1());
        assert!(out.contains("127.0.0.1:7411"));
        assert!(out.contains("3 synthesis threads at most"));
        assert!(!out.contains("one per CPU"));
        assert!(out.contains("9 queued requests"));
        assert!(out.contains("17 simultaneous connections"));
        assert!(out.contains("read 1500 ms"));
        assert!(out.contains("write 2500 ms"));
        assert!(out.contains("drain 3500 ms"));
        assert!(out.contains("65536 B"));
        assert!(out.contains("/tmp/rchls-store"));
        assert!(out.contains("resource versions"));
        assert!(out.contains("dry run"));
        // jobs = 0 resolves and says so; no store says so too.
        let auto = ServeConfig::default().render(&Library::table1());
        assert!(auto.contains("one per CPU"));
        assert!(auto.contains("unlimited"));
        assert!(auto.contains("none (in-memory caches only)"));
    }
}
