//! The `zeusd` wire protocol: line-delimited JSON over a Unix socket.
//!
//! One connection carries one request and one response, each a single
//! JSON object on a single line (the workspace's one JSON codec,
//! `zeus_elab::json`, re-exported here as [`Json`], escapes every
//! control character and emits no whitespace, so a reader can frame on
//! `\n`). The codec caps nesting at 128 and parses in linear time, so a
//! hostile request line is answered `bad_request`.
//!
//! ## Request
//!
//! ```json
//! {"id": 7, "argv": ["fault", "@adders", "rippleCarry4", "--seed", "1"],
//!  "sources": {"adder.zeus": "TYPE ..."}, "deadline_ms": 30000,
//!  "chaos_panic": false}
//! ```
//!
//! `argv` is the exact `zeusc` command line (subcommand first, no
//! `--remote`); `sources` inlines every file the command line
//! references, keyed by the path string used in `argv`; `deadline_ms`
//! (optional) caps the request's wall clock on top of the server
//! default; `chaos_panic` asks a chaos-enabled server to panic inside
//! the worker (test hook, ignored otherwise).
//!
//! ## Response
//!
//! One of:
//!
//! ```json
//! {"status": "ok", "code": 0, "out": "...", "err": "...",
//!  "files": {"vecs.txt": "..."}, "cached": true}
//! {"status": "overloaded", "retry_after_ms": 50}
//! {"status": "shutting_down"}
//! {"status": "bad_request", "msg": "..."}
//! ```
//!
//! `ok` mirrors a local run exactly: `code` is the process exit code,
//! `out`/`err` the bytes for stdout/stderr, `files` any `--emit-vectors`
//! output to be written client-side. `overloaded` means the bounded
//! queue was full — retry after the hinted delay. `shutting_down` means
//! the daemon is draining and will not accept new work.

pub use zeus::Json;

/// One `zeusc` invocation shipped to the daemon.
#[derive(Debug, Clone, Default)]
pub struct Request {
    /// Client-chosen identifier, echoed nowhere but useful in logs.
    pub id: u64,
    /// The `zeusc` command line, subcommand first.
    pub argv: Vec<String>,
    /// Inlined file contents keyed by the path strings in `argv`.
    pub sources: Vec<(String, String)>,
    /// Optional per-request deadline; the server clamps it to its own
    /// maximum.
    pub deadline_ms: Option<u64>,
    /// Chaos hook: ask the worker to panic mid-request (only honored by
    /// a server started with chaos enabled).
    pub chaos_panic: bool,
}

impl Request {
    /// Serializes to one protocol line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut obj = vec![
            ("id".to_string(), Json::Num(self.id)),
            (
                "argv".to_string(),
                Json::Arr(self.argv.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "sources".to_string(),
                Json::Obj(
                    self.sources
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                        .collect(),
                ),
            ),
        ];
        if let Some(ms) = self.deadline_ms {
            obj.push(("deadline_ms".to_string(), Json::Num(ms)));
        }
        if self.chaos_panic {
            obj.push(("chaos_panic".to_string(), Json::Bool(true)));
        }
        Json::Obj(obj).encode()
    }

    /// Parses one protocol line.
    ///
    /// # Errors
    ///
    /// A message describing the malformed field.
    pub fn decode(line: &str) -> Result<Request, String> {
        let v = Json::parse(line)?;
        let argv = match v.get("argv") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|i| i.as_str().map(str::to_string))
                .collect::<Option<Vec<_>>>()
                .ok_or("argv items must be strings")?,
            _ => return Err("missing argv".to_string()),
        };
        let mut sources = Vec::new();
        if let Some(Json::Obj(pairs)) = v.get("sources") {
            for (k, val) in pairs {
                sources.push((
                    k.clone(),
                    val.as_str()
                        .ok_or("source values must be strings")?
                        .to_string(),
                ));
            }
        }
        Ok(Request {
            id: v.get("id").and_then(Json::as_u64).unwrap_or(0),
            argv,
            sources,
            deadline_ms: v.get("deadline_ms").and_then(Json::as_u64),
            chaos_panic: v
                .get("chaos_panic")
                .and_then(Json::as_bool)
                .unwrap_or(false),
        })
    }
}

/// The daemon's answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request ran (successfully or not): a faithful mirror of the
    /// equivalent local `zeusc` run.
    Ok {
        /// Process exit code of the equivalent local run.
        code: u8,
        /// stdout bytes.
        out: String,
        /// stderr bytes.
        err: String,
        /// Files to write client-side, as `(path, content)`.
        files: Vec<(String, String)>,
        /// True when the answer was replayed from the daemon's store or
        /// the run reused a stored elaborated design.
        cached: bool,
    },
    /// The bounded queue was full; retry after the hinted delay.
    Overloaded {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u64,
    },
    /// The daemon is draining and accepts no new work.
    ShuttingDown,
    /// The request line did not parse or named an unsupported feature.
    BadRequest {
        /// Human-readable reason.
        msg: String,
    },
}

impl Response {
    /// Serializes to one protocol line (no trailing newline).
    pub fn encode(&self) -> String {
        let obj = match self {
            Response::Ok {
                code,
                out,
                err,
                files,
                cached,
            } => vec![
                ("status".to_string(), Json::Str("ok".to_string())),
                ("code".to_string(), Json::Num(u64::from(*code))),
                ("out".to_string(), Json::Str(out.clone())),
                ("err".to_string(), Json::Str(err.clone())),
                (
                    "files".to_string(),
                    Json::Obj(
                        files
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                            .collect(),
                    ),
                ),
                ("cached".to_string(), Json::Bool(*cached)),
            ],
            Response::Overloaded { retry_after_ms } => vec![
                ("status".to_string(), Json::Str("overloaded".to_string())),
                ("retry_after_ms".to_string(), Json::Num(*retry_after_ms)),
            ],
            Response::ShuttingDown => {
                vec![("status".to_string(), Json::Str("shutting_down".to_string()))]
            }
            Response::BadRequest { msg } => vec![
                ("status".to_string(), Json::Str("bad_request".to_string())),
                ("msg".to_string(), Json::Str(msg.clone())),
            ],
        };
        Json::Obj(obj).encode()
    }

    /// Parses one protocol line.
    ///
    /// # Errors
    ///
    /// A message describing the malformed field.
    pub fn decode(line: &str) -> Result<Response, String> {
        let v = Json::parse(line)?;
        match v.get("status").and_then(Json::as_str) {
            Some("ok") => {
                let mut files = Vec::new();
                if let Some(Json::Obj(pairs)) = v.get("files") {
                    for (k, val) in pairs {
                        files.push((
                            k.clone(),
                            val.as_str()
                                .ok_or("file values must be strings")?
                                .to_string(),
                        ));
                    }
                }
                Ok(Response::Ok {
                    code: v
                        .get("code")
                        .and_then(Json::as_u64)
                        .and_then(|c| u8::try_from(c).ok())
                        .ok_or("missing code")?,
                    out: v
                        .get("out")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                    err: v
                        .get("err")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                    files,
                    cached: v.get("cached").and_then(Json::as_bool).unwrap_or(false),
                })
            }
            Some("overloaded") => Ok(Response::Overloaded {
                retry_after_ms: v.get("retry_after_ms").and_then(Json::as_u64).unwrap_or(50),
            }),
            Some("shutting_down") => Ok(Response::ShuttingDown),
            Some("bad_request") => Ok(Response::BadRequest {
                msg: v
                    .get("msg")
                    .and_then(Json::as_str)
                    .unwrap_or("bad request")
                    .to_string(),
            }),
            _ => Err("missing or unknown status".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let req = Request {
            id: 9,
            argv: vec!["sim".to_string(), "a.zeus".to_string(), "t\"op".to_string()],
            sources: vec![("a.zeus".to_string(), "TYPE x\nline2".to_string())],
            deadline_ms: Some(1500),
            chaos_panic: true,
        };
        let back = Request::decode(&req.encode()).unwrap();
        assert_eq!(back.argv, req.argv);
        assert_eq!(back.sources, req.sources);
        assert_eq!(back.deadline_ms, Some(1500));
        assert!(back.chaos_panic);
    }

    #[test]
    fn responses_round_trip() {
        let cases = [
            Response::Ok {
                code: 130,
                out: "multi\nline".to_string(),
                err: String::new(),
                files: vec![("v.txt".to_string(), "zeus-vectors\n".to_string())],
                cached: true,
            },
            Response::Overloaded { retry_after_ms: 75 },
            Response::ShuttingDown,
            Response::BadRequest {
                msg: "no argv".to_string(),
            },
        ];
        for r in cases {
            assert_eq!(Response::decode(&r.encode()).unwrap(), r);
        }
    }
}
