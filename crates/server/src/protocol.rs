//! The wire protocol: strictly validated requests and typed replies.
//!
//! One request per line, one reply per line, both `icm-json`. Parsing
//! is total: every malformed input maps to a typed [`ErrorCode`] — the
//! serving loop never panics on client bytes and never desyncs, because
//! framing damage is confined to the one line it arrived on.
//!
//! Time in the protocol is *virtual*: arrival stamps (`at_ms`) and
//! deadline budgets (`deadline_ms`) are client-declared virtual
//! milliseconds, and every latency the server reports
//! (`latency_us`, `retry_after_us`) is in virtual microseconds on the
//! same clock. Wall time never appears on the wire — that keeps every
//! reply, and therefore the committed-reply journal, byte-identical
//! across same-seed replays (see `crate::clock`).

use icm_json::{write_object, Json, ToJson};

/// Upper bound on `place` iteration requests — a client cannot buy an
/// unbounded amount of annealing with one line.
pub const MAX_PLACE_ITERATIONS: u64 = 10_000;

/// What a request asks the server to do.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestKind {
    /// Predict the normalized runtime of `app` co-located with
    /// `corunners` (fleet names) on every host of its span.
    Predict {
        /// Fleet application to predict for.
        app: String,
        /// Co-located fleet applications (order-insensitive).
        corunners: Vec<String>,
    },
    /// Feed a measured normalized runtime back into `app`'s online
    /// model under the same co-location context.
    Observe {
        /// Fleet application that was measured.
        app: String,
        /// Co-located fleet applications during the measurement.
        corunners: Vec<String>,
        /// Measured normalized runtime (≥ 1.0 is typical).
        normalized: f64,
    },
    /// Run a bounded placement search over the current fleet and
    /// report the best pooled cost found.
    Place {
        /// Annealing iterations, capped at
        /// [`MAX_PLACE_ITERATIONS`].
        iterations: u64,
    },
    /// Advance the supervised run by one manager tick.
    Tick,
    /// Report server state: clock, queue depth, counters.
    Status,
    /// Drain the queue and stop serving.
    Shutdown,
}

/// A validated request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the reply.
    pub id: String,
    /// The operation.
    pub kind: RequestKind,
    /// Admission priority: higher survives overload longer (the
    /// manager's shed ordering, applied to traffic).
    pub priority: u32,
    /// Virtual deadline budget in milliseconds, measured from arrival.
    pub deadline_ms: u64,
    /// Virtual arrival stamp in milliseconds. Omitted means "now" (the
    /// server clock at intake), so interactive use never queues.
    pub at_ms: Option<u64>,
}

/// Typed reason a request (or frame) was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame is not valid UTF-8.
    InvalidUtf8,
    /// The frame exceeds the reader's size bound.
    OversizedFrame,
    /// The stream ended mid-frame (no trailing newline).
    TruncatedFrame,
    /// The line is not valid JSON.
    MalformedJson,
    /// The line parsed, but is not a JSON object.
    NotAnObject,
    /// A required field is absent.
    MissingField,
    /// A field has the wrong type or an out-of-range value.
    BadField,
    /// `kind` names no operation this server provides.
    UnknownKind,
    /// The named application is not in the supervised fleet.
    UnknownApp,
    /// A degraded answer would rest on `Defaulted` model cells; the
    /// circuit breaker refuses to serve it.
    CircuitOpen,
    /// The server is draining after a shutdown request.
    ShuttingDown,
    /// The supervised run cannot perform the operation (e.g. ticking a
    /// finished horizon).
    Unavailable,
}

impl ErrorCode {
    /// Stable wire name of the code.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::InvalidUtf8 => "invalid_utf8",
            Self::OversizedFrame => "oversized_frame",
            Self::TruncatedFrame => "truncated_frame",
            Self::MalformedJson => "malformed_json",
            Self::NotAnObject => "not_an_object",
            Self::MissingField => "missing_field",
            Self::BadField => "bad_field",
            Self::UnknownKind => "unknown_kind",
            Self::UnknownApp => "unknown_app",
            Self::CircuitOpen => "circuit_open",
            Self::ShuttingDown => "shutting_down",
            Self::Unavailable => "unavailable",
        }
    }
}

/// A typed reply. Exactly one is emitted per frame the server accepts
/// from the stream, in commit order.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// The request was executed.
    Ok {
        /// Echo of the request id.
        id: String,
        /// `true` when the answer came from the stale-prediction cache
        /// under saturation rather than a fresh model evaluation.
        degraded: bool,
        /// Virtual end-to-end latency (queue wait + service) in
        /// microseconds.
        latency_us: u64,
        /// Operation-specific result.
        payload: Json,
    },
    /// The request (or its frame) was refused with a typed reason.
    Error {
        /// Echo of the request id when one could be recovered; `None`
        /// for frames too damaged to carry one.
        id: Option<String>,
        /// The typed reason.
        code: ErrorCode,
        /// Human-readable detail (stable, deterministic text).
        detail: String,
    },
    /// Executing the request would overrun its virtual deadline budget;
    /// nothing was executed.
    DeadlineExceeded {
        /// Echo of the request id.
        id: String,
        /// The budget the request declared, in microseconds.
        budget_us: u64,
        /// Queue wait plus service cost the server predicted, in
        /// microseconds.
        needed_us: u64,
    },
    /// The bounded queue is saturated and this request lost the
    /// priority comparison; nothing was executed.
    Overloaded {
        /// Echo of the request id.
        id: String,
        /// Estimated virtual drain time of the backlog — retry after
        /// this many microseconds.
        retry_after_us: u64,
    },
}

impl Reply {
    /// The wire line for this reply (no trailing newline), written
    /// straight from its fields. Counts are written as JSON numbers,
    /// the `f64` text of the value.
    pub fn to_line(&self) -> String {
        let fields: &[(&str, &dyn ToJson)] = match self {
            Reply::Ok {
                id,
                degraded,
                latency_us,
                payload,
            } => &[
                ("id", id),
                ("status", &"ok"),
                ("degraded", degraded),
                ("latency_us", &(*latency_us as f64)),
                ("payload", payload),
            ],
            Reply::Error { id, code, detail } => &[
                ("id", id),
                ("status", &"error"),
                ("code", &code.as_str()),
                ("detail", detail),
            ],
            Reply::DeadlineExceeded {
                id,
                budget_us,
                needed_us,
            } => &[
                ("id", id),
                ("status", &"deadline_exceeded"),
                ("budget_us", &(*budget_us as f64)),
                ("needed_us", &(*needed_us as f64)),
            ],
            Reply::Overloaded { id, retry_after_us } => &[
                ("id", id),
                ("status", &"overloaded"),
                ("retry_after_us", &(*retry_after_us as f64)),
            ],
        };
        let mut line = String::new();
        write_object(&mut line, fields.iter().copied());
        line
    }

    /// The request id this reply answers, when one was recoverable.
    pub fn id(&self) -> Option<&str> {
        match self {
            Reply::Ok { id, .. }
            | Reply::DeadlineExceeded { id, .. }
            | Reply::Overloaded { id, .. } => Some(id),
            Reply::Error { id, .. } => id.as_deref(),
        }
    }

    /// Whether this reply is a typed refusal (`error` status).
    pub fn is_error(&self) -> bool {
        matches!(self, Reply::Error { .. })
    }
}

/// A parse failure carrying whatever id could be recovered, so even a
/// refusal can be correlated by the client.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseRefusal {
    /// Recovered request id, if the frame got far enough to carry one.
    pub id: Option<String>,
    /// The typed reason.
    pub code: ErrorCode,
    /// Deterministic detail text.
    pub detail: String,
}

impl ParseRefusal {
    fn new(id: Option<String>, code: ErrorCode, detail: impl Into<String>) -> Self {
        Self {
            id,
            code,
            detail: detail.into(),
        }
    }
}

fn non_negative_int(value: &Json, field: &str) -> Result<u64, String> {
    let number = value
        .as_f64()
        .ok_or_else(|| format!("`{field}` must be a number, got {}", value.kind()))?;
    if !(number.is_finite() && number >= 0.0 && number.fract() == 0.0) {
        return Err(format!("`{field}` must be a non-negative integer"));
    }
    Ok(number as u64)
}

fn string_field(object: &Json, field: &str) -> Result<String, ParseRefusal> {
    let id = recover_id(object);
    match object.get(field) {
        None => Err(ParseRefusal::new(
            id,
            ErrorCode::MissingField,
            format!("`{field}` is required"),
        )),
        Some(value) => value.as_str().map(str::to_owned).ok_or_else(|| {
            ParseRefusal::new(
                id,
                ErrorCode::BadField,
                format!("`{field}` must be a string, got {}", value.kind()),
            )
        }),
    }
}

fn string_list_field(object: &Json, field: &str) -> Result<Vec<String>, ParseRefusal> {
    let id = recover_id(object);
    let Some(value) = object.get(field) else {
        return Err(ParseRefusal::new(
            id,
            ErrorCode::MissingField,
            format!("`{field}` is required"),
        ));
    };
    let items = value.as_array().ok_or_else(|| {
        ParseRefusal::new(
            id.clone(),
            ErrorCode::BadField,
            format!("`{field}` must be an array, got {}", value.kind()),
        )
    })?;
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let name = item.as_str().ok_or_else(|| {
            ParseRefusal::new(
                id.clone(),
                ErrorCode::BadField,
                format!("`{field}` entries must be strings, got {}", item.kind()),
            )
        })?;
        out.push(name.to_owned());
    }
    Ok(out)
}

fn recover_id(object: &Json) -> Option<String> {
    object.get("id").and_then(Json::as_str).map(str::to_owned)
}

impl Request {
    /// Default deadline budget (virtual ms) for a request kind.
    pub fn default_deadline_ms(kind: &RequestKind) -> u64 {
        match kind {
            RequestKind::Predict { .. } | RequestKind::Observe { .. } => 10,
            RequestKind::Place { .. } => 100,
            RequestKind::Tick => 200,
            RequestKind::Status | RequestKind::Shutdown => 50,
        }
    }

    /// Parses one request line with strict validation.
    ///
    /// # Errors
    ///
    /// A [`ParseRefusal`] with a typed [`ErrorCode`] and whatever `id`
    /// the frame managed to carry.
    pub fn parse(line: &str) -> Result<Request, ParseRefusal> {
        let value = icm_json::parse(line)
            .map_err(|e| ParseRefusal::new(None, ErrorCode::MalformedJson, e.to_string()))?;
        if value.as_object().is_none() {
            return Err(ParseRefusal::new(
                None,
                ErrorCode::NotAnObject,
                format!("a request must be a JSON object, got {}", value.kind()),
            ));
        }
        let id = recover_id(&value);
        let id = match id {
            Some(id) if !id.is_empty() => id,
            Some(_) => {
                return Err(ParseRefusal::new(
                    None,
                    ErrorCode::BadField,
                    "`id` must be a non-empty string",
                ))
            }
            None => {
                return Err(ParseRefusal::new(
                    None,
                    ErrorCode::MissingField,
                    "`id` is required",
                ))
            }
        };
        let refuse = |code, detail: String| ParseRefusal::new(Some(id.clone()), code, detail);
        let kind_name = string_field(&value, "kind")?;
        let kind = match kind_name.as_str() {
            "predict" => RequestKind::Predict {
                app: string_field(&value, "app")?,
                corunners: string_list_field(&value, "corunners")?,
            },
            "observe" => {
                let normalized = match value.get("normalized") {
                    None => {
                        return Err(refuse(
                            ErrorCode::MissingField,
                            "`normalized` is required".into(),
                        ))
                    }
                    Some(v) => v
                        .as_f64()
                        .filter(|n| n.is_finite() && *n > 0.0)
                        .ok_or_else(|| {
                            refuse(
                                ErrorCode::BadField,
                                "`normalized` must be a finite positive number".into(),
                            )
                        })?,
                };
                RequestKind::Observe {
                    app: string_field(&value, "app")?,
                    corunners: string_list_field(&value, "corunners")?,
                    normalized,
                }
            }
            "place" => {
                let iterations = match value.get("iterations") {
                    None => 400,
                    Some(v) => non_negative_int(v, "iterations")
                        .map_err(|detail| refuse(ErrorCode::BadField, detail))?,
                };
                if iterations == 0 || iterations > MAX_PLACE_ITERATIONS {
                    return Err(refuse(
                        ErrorCode::BadField,
                        format!("`iterations` must be in 1..={MAX_PLACE_ITERATIONS}"),
                    ));
                }
                RequestKind::Place { iterations }
            }
            "tick" => RequestKind::Tick,
            "status" => RequestKind::Status,
            "shutdown" => RequestKind::Shutdown,
            other => {
                return Err(refuse(
                    ErrorCode::UnknownKind,
                    format!("unknown kind `{other}`"),
                ))
            }
        };
        let priority = match value.get("priority") {
            None => 1,
            Some(v) => {
                let p = non_negative_int(v, "priority")
                    .map_err(|detail| refuse(ErrorCode::BadField, detail))?;
                u32::try_from(p)
                    .map_err(|_| refuse(ErrorCode::BadField, "`priority` exceeds u32".into()))?
            }
        };
        let deadline_ms = match value.get("deadline_ms") {
            None => Self::default_deadline_ms(&kind),
            Some(v) => {
                let d = non_negative_int(v, "deadline_ms")
                    .map_err(|detail| refuse(ErrorCode::BadField, detail))?;
                if d == 0 {
                    return Err(refuse(
                        ErrorCode::BadField,
                        "`deadline_ms` must be at least 1".into(),
                    ));
                }
                d
            }
        };
        let at_ms = match value.get("at_ms") {
            None => None,
            Some(v) => Some(
                non_negative_int(v, "at_ms")
                    .map_err(|detail| refuse(ErrorCode::BadField, detail))?,
            ),
        };
        Ok(Request {
            id,
            kind,
            priority,
            deadline_ms,
            at_ms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_minimal_predict_request_parses_with_defaults() {
        let req = Request::parse(r#"{"id":"r1","kind":"predict","app":"M.milc","corunners":[]}"#)
            .expect("parses");
        assert_eq!(req.id, "r1");
        assert_eq!(req.priority, 1);
        assert_eq!(req.deadline_ms, 10);
        assert_eq!(req.at_ms, None);
        assert!(matches!(req.kind, RequestKind::Predict { .. }));
    }

    #[test]
    fn refusals_are_typed_and_carry_the_id_when_possible() {
        let cases: Vec<(&str, ErrorCode, Option<&str>)> = vec![
            ("not json", ErrorCode::MalformedJson, None),
            ("[1,2]", ErrorCode::NotAnObject, None),
            (r#"{"kind":"status"}"#, ErrorCode::MissingField, None),
            (r#"{"id":"x"}"#, ErrorCode::MissingField, Some("x")),
            (
                r#"{"id":"x","kind":"frobnicate"}"#,
                ErrorCode::UnknownKind,
                Some("x"),
            ),
            (
                r#"{"id":"x","kind":"predict"}"#,
                ErrorCode::MissingField,
                Some("x"),
            ),
            (
                r#"{"id":"x","kind":"predict","app":"a","corunners":[1]}"#,
                ErrorCode::BadField,
                Some("x"),
            ),
            (
                r#"{"id":"x","kind":"status","priority":-1}"#,
                ErrorCode::BadField,
                Some("x"),
            ),
            (
                r#"{"id":"x","kind":"status","deadline_ms":0}"#,
                ErrorCode::BadField,
                Some("x"),
            ),
            (
                r#"{"id":"x","kind":"place","iterations":99999}"#,
                ErrorCode::BadField,
                Some("x"),
            ),
        ];
        for (line, code, id) in cases {
            let refusal = Request::parse(line).expect_err(line);
            assert_eq!(refusal.code, code, "{line}");
            assert_eq!(refusal.id.as_deref(), id, "{line}");
        }
    }

    #[test]
    fn replies_serialize_to_stable_single_lines() {
        let ok = Reply::Ok {
            id: "r1".into(),
            degraded: true,
            latency_us: 2050,
            payload: Json::object([("predicted", Json::Number(1.25))]),
        };
        let line = ok.to_line();
        assert!(!line.contains('\n'));
        assert!(line.contains(r#""status":"ok""#));
        assert!(line.contains(r#""degraded":true"#));
        let err = Reply::Error {
            id: None,
            code: ErrorCode::OversizedFrame,
            detail: "too big".into(),
        };
        assert!(err.to_line().contains(r#""code":"oversized_frame""#));
        assert!(err.is_error());
        assert_eq!(err.id(), None);
        let over = Reply::Overloaded {
            id: "r9".into(),
            retry_after_us: 1500,
        };
        assert!(over.to_line().contains(r#""retry_after_us":1500"#));
        assert_eq!(over.id(), Some("r9"));
    }
}
