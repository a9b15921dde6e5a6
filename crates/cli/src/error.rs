//! CLI error type.

use rchls_core::SynthesisError;
use std::error::Error;
use std::fmt;

/// An error from parsing or executing a CLI invocation.
#[derive(Debug)]
pub enum CliError {
    /// The first argument named no known subcommand.
    UnknownCommand(String),
    /// A flag was malformed, unknown, or missing its value.
    BadFlag(String),
    /// A required flag was not supplied.
    MissingFlag(&'static str),
    /// A flag value failed to parse.
    BadValue {
        /// The flag concerned.
        flag: String,
        /// Why its value was rejected.
        reason: String,
    },
    /// `--dfg` named neither a built-in benchmark nor a readable file.
    UnknownDfg(String),
    /// A workload spec did not resolve through the source registry.
    Workload(rchls_workloads::WorkloadError),
    /// Reading an input file failed.
    Io(std::io::Error),
    /// A flow flag (`--scheduler`, `--binder`, `--victim`, `--refine`)
    /// named an unregistered pass id.
    Synthesis(SynthesisError),
    /// A batch job failed engine-side validation.
    Engine(rchls_core::EngineError),
    /// A persistent-store or shard-merge operation failed (the message
    /// carries its own context, e.g. `store open /path: ...` or
    /// `merge: missing shard index 1 of 2`).
    Store(String),
    /// A `rchls chaos run` found resilience-invariant violations (the
    /// message lists them; the `--report` document has the details).
    Chaos(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownCommand(c) => write!(f, "unknown command {c:?}"),
            CliError::BadFlag(s) => write!(f, "malformed flag {s:?}"),
            CliError::MissingFlag(name) => write!(f, "missing required flag --{name}"),
            CliError::BadValue { flag, reason } => {
                write!(f, "bad value for --{flag}: {reason}")
            }
            CliError::UnknownDfg(name) => write!(
                f,
                "{name:?} is neither a built-in benchmark nor a readable DFG file"
            ),
            CliError::Workload(e) => write!(f, "{e}"),
            CliError::Io(e) => write!(f, "i/o error: {e}"),
            CliError::Synthesis(e) => write!(f, "{e}"),
            CliError::Engine(e) => write!(f, "{e}"),
            CliError::Store(message) => write!(f, "{message}"),
            CliError::Chaos(message) => write!(f, "{message}"),
        }
    }
}

impl Error for CliError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CliError::Workload(e) => Some(e),
            CliError::Io(e) => Some(e),
            CliError::Synthesis(e) => Some(e),
            CliError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<rchls_workloads::WorkloadError> for CliError {
    fn from(e: rchls_workloads::WorkloadError) -> CliError {
        CliError::Workload(e)
    }
}

impl From<rchls_core::EngineError> for CliError {
    fn from(e: rchls_core::EngineError) -> CliError {
        CliError::Engine(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> CliError {
        CliError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        assert!(CliError::UnknownCommand("x".into())
            .to_string()
            .contains('x'));
        assert!(CliError::MissingFlag("area").to_string().contains("area"));
        let bv = CliError::BadValue {
            flag: "latency".into(),
            reason: "not a number".into(),
        };
        assert!(bv.to_string().contains("latency"));
    }
}
