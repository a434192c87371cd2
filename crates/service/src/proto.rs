//! The line-oriented wire protocol.
//!
//! Requests are the session command language, one command per line
//! (`\n`-terminated). Historically every request got exactly one reply
//! line; the vectorized `eval*` command and streamed `series` replies
//! relax that invariant into *reply groups*: zero or more tagged chunk
//! lines followed by exactly one terminal line.
//!
//! ```text
//! group   = chunk* final
//! chunk   = "ok* " tag " " payload LF   ; partial success, more follows
//!         | "ok* " tag LF               ; partial success, empty payload
//!         | "err* " tag " " payload LF  ; one failed element of the group
//! final   = "ok" [" " payload] LF       ; group (or plain request) succeeded
//!         | "err " payload LF           ; group (or plain request) failed
//!         | "bye" LF                    ; acknowledges quit/exit/shutdown
//! tag     = 1*( any byte except SP / LF )
//! payload = escaped UTF-8: "\\" => backslash, "\n" => newline,
//!           "\r" => carriage return, "\t" => tab
//! ```
//!
//! Plain commands (`mu`, `fact`, `stats`, …) still reply with a single
//! `final` line, so pre-chunking clients keep working unchanged. Chunked
//! groups appear in exactly three places:
//!
//! * **`eval*`** — many read-only evaluation jobs on one request line,
//!   TAB-separated, each job [`escape`]d (so a job containing a literal
//!   tab round-trips). The server fans the jobs out across the worker
//!   pool and replies one chunk per job, tagged with the job's 0-based
//!   index — **in completion order, not index order** — then a terminal
//!   `ok done <n>`. A failed job is an `err*` chunk; it never aborts its
//!   siblings.
//! * **`series <name> <k>`** — the server streams one chunk per `k`,
//!   tagged `1..=k`, each payload one `k=…` row of the series table, as
//!   soon as that μᵏ is computed (ascending `k`), then a terminal
//!   `ok done <k>`. Joining the chunk payloads with newlines (plus a
//!   trailing newline) reconstructs byte-for-byte what the interactive
//!   shell prints. On a live connection, a series job that enumerates
//!   an expensive final row additionally interleaves Monte-Carlo
//!   estimate chunks of μ^k_max while the exact enumeration proceeds
//!   (**anytime serving**):
//!
//!   ```text
//!   approx  = "ok* approx " value " ±" err " " samples LF
//!   value   = point estimate, 6 decimal places
//!   err     = one standard error (Agresti–Coull), 6 decimal places
//!   samples = number of Monte-Carlo samples behind the estimate
//!   ```
//!
//!   `approx` chunks are advisory and carry the literal tag `approx`
//!   (never a number, so they cannot collide with `k`-row tags):
//!   clients reconstructing the exact table skip them. They appear only
//!   on cache misses computed for a live streaming connection — batch
//!   mode, jobs the class census answers, and cache-hit replays emit
//!   none — and they are never part of the cached aggregate, so a hit
//!   replays exactly the `k`-row chunks plus `ok done <k>`. Stripping
//!   `approx` chunks, the frame sequence is byte-identical to batch
//!   mode's.
//! * **`explain <eval command>`** — the planner's full report as word-
//!   tagged chunks, then a terminal `ok done <n>`: one `route` chunk
//!   (the chosen route's kebab-case name), one `features` chunk (the
//!   classification line, `fragment=… constants=… sigma=… db=… nulls=…
//!   facts=… tuple=…`), and one `reject` chunk per candidate route
//!   whose precondition failed, payload `<route-name>: <reason>`, in
//!   the order the candidates were tried. The sibling **`plan`**
//!   command answers a single `final` line instead: `ok route <name>`,
//!   with a `(rejected: …)` parenthetical when candidates were tried
//!   and refused. Neither command evaluates anything.
//!
//! A reply group is terminated by its `final` line even when a mid-group
//! element failed, so a client never needs lookahead: read lines until a
//! non-`*` status.
//!
//! The HTTP/1.1 gateway (`crate::http`, docs/HTTP.md) reuses this
//! framing verbatim: every frame of a group becomes exactly one chunk
//! of a chunked response body and the terminal frame is followed by the
//! last-chunk, so a de-chunked `text/plain` body is byte-identical to
//! the group as the line protocol would have written it.
//!
//! ## Overload replies
//!
//! Under admission control (`--queue-deadline-ms` and/or
//! `--max-inflight-per-conn`) the server may decline work instead of
//! queueing it. A declined request is answered with the ordinary error
//! framing carrying the reserved payload [`BUSY`]:
//!
//! * a declined plain command (including `series` and `plan`/`explain`)
//!   answers exactly `err busy` — in reply order, like any other reply;
//! * a declined member of an `eval*` group answers an index-tagged
//!   `err* <i> busy` chunk; its admitted siblings still run and the
//!   terminal `ok done <n>` still arrives, so group framing is intact.
//!
//! A cache hit whose key the session's canonical-form memo already
//! holds (a repeat of the session's latest keyed `mu`/`cond`/`series`
//! tuple against an unchanged database) is answered while the line is
//! classified, without entering the pool queue, so a full queue never
//! sheds it and the queue deadline never expires it. Only the
//! per-connection cap, which declines lines before they are parsed,
//! still applies.
//!
//! `busy` is deliberately a well-formed `err` payload: clients that
//! don't know about admission control see an ordinary error; clients
//! that do can retry with backoff. Shed and expired work never executes
//! (no cache, store, or route-counter effects), and busy replies are
//! *excluded* from `errors_total` — the `jobs_shed_total`,
//! `deadline_expired_total`, and `conn_inflight_rejected_total` stats
//! counters reconcile exactly with the busy frames a client observes.

/// The reserved error payload for declined (shed, expired, or
/// over-cap) work: `err busy` / `err* <i> busy`. See the module docs'
/// *Overload replies* section.
pub const BUSY: &str = "busy";

/// Internal error payload for a job abandoned because its client
/// disconnected mid-stream (anytime cancellation). Never written to a
/// live connection — by construction the connection is already gone —
/// and excluded from `errors_total`; it exists so the completion path
/// can tell "client left" from a real evaluation failure.
pub(crate) const CANCELLED: &str = "cancelled";

/// Escape a reply payload (or an `eval*` job) onto one line.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out
}

/// Invert [`escape`]. Unknown escapes decode to the escaped character
/// itself, so decoding never fails.
pub fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('\\') => out.push('\\'),
            Some(other) => out.push(other),
            None => out.push('\\'),
        }
    }
    out
}

/// Split the argument text of an `eval*` request into its job command
/// lines: jobs are TAB-separated and individually [`escape`]d.
pub fn split_jobs(rest: &str) -> Vec<String> {
    rest.split('\t').map(unescape).collect()
}

/// Join job command lines into `eval*` argument text ([`escape`] each,
/// TAB-separate). The client-side inverse of [`split_jobs`].
pub fn join_jobs<'a, I: IntoIterator<Item = &'a str>>(jobs: I) -> String {
    jobs.into_iter().map(escape).collect::<Vec<_>>().join("\t")
}

/// A parsed terminal reply line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireReply {
    /// `ok [payload]`.
    Ok(String),
    /// `err payload`.
    Err(String),
    /// `bye`.
    Bye,
}

/// One line of a reply group: a tagged chunk or the terminal reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireFrame {
    /// `ok* <tag> [payload]` — a successful partial result.
    Chunk {
        /// Group-defined tag: the job index for `eval*`, `k` for `series`.
        tag: String,
        /// Unescaped chunk payload.
        payload: String,
    },
    /// `err* <tag> <payload>` — a failed element of the group.
    ChunkErr {
        /// Group-defined tag of the failed element.
        tag: String,
        /// Unescaped error text.
        payload: String,
    },
    /// The terminal line ending the group.
    Final(WireReply),
}

/// Render a terminal reply as its wire line (without the trailing
/// newline).
pub fn encode_reply(reply: &WireReply) -> String {
    match reply {
        WireReply::Ok(s) if s.is_empty() => "ok".to_string(),
        WireReply::Ok(s) => format!("ok {}", escape(s)),
        WireReply::Err(s) => format!("err {}", escape(s)),
        WireReply::Bye => "bye".to_string(),
    }
}

/// Parse a wire line back into a terminal reply. `None` for chunk and
/// malformed lines.
pub fn decode_reply(line: &str) -> Option<WireReply> {
    let line = line.strip_suffix('\n').unwrap_or(line);
    if line == "bye" {
        return Some(WireReply::Bye);
    }
    if line == "ok" {
        return Some(WireReply::Ok(String::new()));
    }
    if let Some(rest) = line.strip_prefix("ok ") {
        return Some(WireReply::Ok(unescape(rest)));
    }
    if let Some(rest) = line.strip_prefix("err ") {
        return Some(WireReply::Err(unescape(rest)));
    }
    None
}

/// Render any reply-group line (without the trailing newline).
pub fn encode_frame(frame: &WireFrame) -> String {
    match frame {
        WireFrame::Chunk { tag, payload } if payload.is_empty() => format!("ok* {tag}"),
        WireFrame::Chunk { tag, payload } => format!("ok* {tag} {}", escape(payload)),
        WireFrame::ChunkErr { tag, payload } => format!("err* {tag} {}", escape(payload)),
        WireFrame::Final(reply) => encode_reply(reply),
    }
}

/// Parse one reply-group line: a chunk, or a terminal reply wrapped in
/// [`WireFrame::Final`]. `None` for malformed lines.
pub fn decode_frame(line: &str) -> Option<WireFrame> {
    let line = line.strip_suffix('\n').unwrap_or(line);
    for (prefix, is_err) in [("ok* ", false), ("err* ", true)] {
        if let Some(rest) = line.strip_prefix(prefix) {
            let (tag, payload) = match rest.split_once(' ') {
                Some((t, p)) => (t, unescape(p)),
                None => (rest, String::new()),
            };
            if tag.is_empty() {
                return None;
            }
            let tag = tag.to_string();
            return Some(if is_err {
                WireFrame::ChunkErr { tag, payload }
            } else {
                WireFrame::Chunk { tag, payload }
            });
        }
    }
    decode_reply(line).map(WireFrame::Final)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_roundtrip() {
        for s in [
            "",
            "plain",
            "two\nlines",
            "back\\slash",
            "crlf\r\n",
            "tab\tseparated",
            "μ(Q, D) = 1",
            "\\n literal",
            "trailing\\",
        ] {
            assert_eq!(unescape(&escape(s)), s, "{s:?}");
            assert!(!escape(s).contains('\n'), "escaped form is one line");
            assert!(!escape(s).contains('\t'), "escaped form has no raw tab");
        }
    }

    #[test]
    fn reply_roundtrip() {
        for r in [
            WireReply::Ok(String::new()),
            WireReply::Ok("μ(Q, D) = 1".into()),
            WireReply::Ok("k=  1  0\nk=  2  1/2".into()),
            WireReply::Err("unknown command \"x\"".into()),
            WireReply::Bye,
        ] {
            assert_eq!(decode_reply(&encode_reply(&r)).as_ref(), Some(&r));
        }
        assert_eq!(decode_reply("gibberish"), None);
    }

    #[test]
    fn frame_roundtrip() {
        for f in [
            WireFrame::Chunk { tag: "0".into(), payload: "μ(Q, D) = 1".into() },
            WireFrame::Chunk { tag: "17".into(), payload: String::new() },
            WireFrame::Chunk { tag: "3".into(), payload: "k=  3  1/2  (≈0.5)".into() },
            WireFrame::ChunkErr { tag: "2".into(), payload: "no query named \"Nope\"".into() },
            WireFrame::Final(WireReply::Ok("done 4".into())),
            WireFrame::Final(WireReply::Err("oops".into())),
            WireFrame::Final(WireReply::Bye),
        ] {
            assert_eq!(decode_frame(&encode_frame(&f)).as_ref(), Some(&f), "{f:?}");
        }
        // Terminal replies decode as Final frames, chunks never decode
        // as terminal replies.
        assert_eq!(
            decode_frame("ok payload"),
            Some(WireFrame::Final(WireReply::Ok("payload".into())))
        );
        assert_eq!(decode_reply("ok* 0 payload"), None);
        assert_eq!(decode_frame("ok* "), None, "missing tag");
        assert_eq!(decode_frame("gibberish"), None);
    }

    #[test]
    fn job_splitting_roundtrip() {
        let jobs = ["mu Q (c1, _x)", "series Q 4", "odd\ttab", "multi\nline"];
        let joined = join_jobs(jobs);
        assert!(!joined.contains('\n'));
        assert_eq!(joined.matches('\t').count(), 3, "separators only");
        assert_eq!(split_jobs(&joined), jobs.to_vec());
        // A single unescaped command is itself a one-job list.
        assert_eq!(split_jobs("mu Q"), vec!["mu Q".to_string()]);
    }
}
