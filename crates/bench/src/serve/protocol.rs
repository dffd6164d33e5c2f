//! Wire protocol of the `msched serve` daemon.
//!
//! Newline-delimited JSON: every request is one JSON object on one line,
//! every response is one JSON object on one line. Requests are parsed
//! with the crate's own hand-rolled reader ([`crate::jsonin`]); responses
//! are hand-rolled strings like every other writer in this workspace (no
//! serde in the offline build).
//!
//! Request grammar (`op` selects the verb):
//!
//! ```text
//! {"op":"ping"}
//! {"op":"submit","tenant":T,"volume":V[,"p":P][,"weight":W][,"delta":D][,"arrival":R]}
//! {"op":"schedule","tenant":T[,"policy":NAME]}
//! {"op":"metrics"[,"tenant":T]}
//! {"op":"trace"}
//! {"op":"shutdown"}
//! ```
//!
//! `p` is required on a tenant's **first** submit (it fixes the tenant's
//! machine capacity) and must not change afterwards. `weight` defaults
//! to 1, `delta` to the tenant's `p`, `arrival` to 0. Responses carry
//! `"ok":true` plus verb-specific fields, or `"ok":false` with an
//! `"error"` string; protocol errors never close the connection.

use crate::jsonin::{self, Json};

/// The crate's one JSON string writer, re-exported so protocol *clients*
/// (the `msched` subcommands) build request lines with the same escaping
/// the daemon decodes.
pub use crate::jsonin::json_string;

/// A parsed daemon request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Append one task to a tenant's instance.
    Submit {
        /// Tenant key (routes to a shard).
        tenant: String,
        /// Machine capacity; required on the tenant's first submit.
        p: Option<f64>,
        /// Task volume `V`.
        volume: f64,
        /// Task weight `w` (default 1).
        weight: f64,
        /// Degree cap `δ` (default: the tenant's `p`).
        delta: Option<f64>,
        /// Release time `r` (default 0).
        arrival: f64,
    },
    /// Solve the tenant's current instance.
    Schedule {
        /// Tenant key.
        tenant: String,
        /// Policy name (batch registry, `optimal`, or an online rule).
        policy: String,
    },
    /// Counter snapshot — global (`tenant: None`) or per tenant.
    Metrics {
        /// Restrict to one tenant's counters.
        tenant: Option<String>,
    },
    /// Tracing status of the daemon.
    TraceInfo,
    /// Begin graceful shutdown (idempotent).
    Shutdown,
}

fn str_field(v: &Json, key: &str, op: &str) -> Result<String, String> {
    match v.get(key) {
        Some(Json::String(s)) if !s.is_empty() => Ok(s.clone()),
        Some(Json::String(_)) => Err(format!("op {op:?} field {key:?} must not be empty")),
        Some(_) => Err(format!("op {op:?} field {key:?} must be a string")),
        None => Err(format!("op {op:?} requires a {key:?} field")),
    }
}

fn num_field(v: &Json, key: &str, op: &str) -> Result<Option<f64>, String> {
    match v.get(key) {
        Some(Json::Number(x)) => Ok(Some(*x)),
        Some(_) => Err(format!("op {op:?} field {key:?} must be a number")),
        None => Ok(None),
    }
}

/// Parse one request line. Errors are protocol errors: the daemon
/// reports them in an `"ok":false` response and keeps the connection.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = jsonin::parse(line).map_err(|e| format!("request is not valid JSON: {e}"))?;
    if !matches!(v, Json::Object(_)) {
        return Err("request must be a JSON object".into());
    }
    let op = str_field(&v, "op", "?")
        .map_err(|_| String::from("request needs a string \"op\" field"))?;
    match op.as_str() {
        "ping" => Ok(Request::Ping),
        "submit" => {
            let volume = num_field(&v, "volume", "submit")?
                .ok_or("op \"submit\" requires a \"volume\" field")?;
            Ok(Request::Submit {
                tenant: str_field(&v, "tenant", "submit")?,
                p: num_field(&v, "p", "submit")?,
                volume,
                weight: num_field(&v, "weight", "submit")?.unwrap_or(1.0),
                delta: num_field(&v, "delta", "submit")?,
                arrival: num_field(&v, "arrival", "submit")?.unwrap_or(0.0),
            })
        }
        "schedule" => Ok(Request::Schedule {
            tenant: str_field(&v, "tenant", "schedule")?,
            policy: match v.get("policy") {
                None => "wdeq".to_string(),
                Some(_) => str_field(&v, "policy", "schedule")?,
            },
        }),
        "metrics" => Ok(Request::Metrics {
            tenant: match v.get("tenant") {
                None => None,
                Some(_) => Some(str_field(&v, "tenant", "metrics")?),
            },
        }),
        "trace" => Ok(Request::TraceInfo),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!(
            "unknown op {other:?} (known: ping, submit, schedule, metrics, trace, shutdown)"
        )),
    }
}

/// The `"ok":false` response for a protocol or handler error.
pub fn error_response(message: &str) -> String {
    format!("{{\"ok\":false,\"error\":{}}}", json_string(message))
}

/// An `"ok":true` response: `fields` are pre-rendered `"key":value`
/// pairs appended after the op tag.
pub fn ok_response(op: &str, fields: &[String]) -> String {
    let mut out = format!("{{\"ok\":true,\"op\":{}", json_string(op));
    for f in fields {
        out.push(',');
        out.push_str(f);
    }
    out.push('}');
    out
}

/// Render an f64 as a JSON number, bit-faithfully (`{:?}` round-trips
/// f64); non-finite values — which valid schedules never produce — fall
/// back to `null`.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_verb() {
        assert_eq!(parse_request(r#"{"op":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
        assert_eq!(
            parse_request(r#"{"op":"trace"}"#).unwrap(),
            Request::TraceInfo
        );
        assert_eq!(
            parse_request(r#"{"op":"metrics"}"#).unwrap(),
            Request::Metrics { tenant: None }
        );
        assert_eq!(
            parse_request(r#"{"op":"metrics","tenant":"a"}"#).unwrap(),
            Request::Metrics {
                tenant: Some("a".into())
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"submit","tenant":"a","p":2,"volume":3.5}"#).unwrap(),
            Request::Submit {
                tenant: "a".into(),
                p: Some(2.0),
                volume: 3.5,
                weight: 1.0,
                delta: None,
                arrival: 0.0,
            }
        );
        assert_eq!(
            parse_request(
                r#"{"op":"submit","tenant":"a","volume":1,"weight":2,"delta":1,"arrival":4}"#
            )
            .unwrap(),
            Request::Submit {
                tenant: "a".into(),
                p: None,
                volume: 1.0,
                weight: 2.0,
                delta: Some(1.0),
                arrival: 4.0,
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"schedule","tenant":"a"}"#).unwrap(),
            Request::Schedule {
                tenant: "a".into(),
                policy: "wdeq".into(),
            }
        );
    }

    #[test]
    fn rejects_malformed_requests_with_pointed_messages() {
        for (line, needle) in [
            ("not json", "not valid JSON"),
            ("[1,2]", "must be a JSON object"),
            ("{}", "\"op\""),
            (r#"{"op":"frobnicate"}"#, "unknown op"),
            (r#"{"op":"submit","volume":1}"#, "\"tenant\""),
            (r#"{"op":"submit","tenant":"a"}"#, "\"volume\""),
            (r#"{"op":"submit","tenant":"","volume":1}"#, "empty"),
            (r#"{"op":"submit","tenant":"a","volume":"x"}"#, "number"),
            (r#"{"op":"schedule","tenant":"a","policy":7}"#, "string"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err} missing {needle:?}");
        }
    }

    #[test]
    fn responses_are_single_line_json() {
        let ok = ok_response("ping", &[]);
        assert_eq!(ok, r#"{"ok":true,"op":"ping"}"#);
        let err = error_response("bad \"thing\"");
        crate::jsonin::parse(&err).expect("error responses parse");
        assert!(!ok.contains('\n') && !err.contains('\n'));
    }

    #[test]
    fn json_num_round_trips_f64() {
        for x in [0.1 + 0.2, 1.0 / 3.0, 2.0, 1e-300] {
            let s = json_num(x);
            let back = crate::jsonin::parse(&s).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{s}");
        }
        assert_eq!(json_num(f64::NAN), "null");
    }
}
