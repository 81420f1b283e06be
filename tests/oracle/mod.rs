//! The wire reference for byte-identity tests: a request stream evaluated
//! one line at a time in process — `parse_command` → `Engine::dispatch`
//! → `Response::encode` — with no transport in between.
//!
//! Framing is done here by splitting on `\n`, not through `scan_line`,
//! so the server's framing keeps an independent check. The rules are the
//! wire contract: a trailing `\r` is trimmed, blank lines are skipped, an
//! unterminated final line is served (the peer half-closed), a line over
//! the 1 MiB cap (a terminated line counts its newline) or a line that is
//! not UTF-8 gets one error and ends the stream, and so does `QUIT` or
//! `SHUTDOWN` after its reply.

use shbf::server::{parse_command, Control, Engine, Response};

/// Longest accepted request line.
const MAX_REQUEST_LINE: usize = 1 << 20;

/// The reply bytes a server whose engine ran `seed` owes a fresh
/// connection that sends `script` and then half-closes.
pub fn replies(seed: &[&str], script: &[u8]) -> Vec<u8> {
    let engine = Engine::new();
    for cmd in seed {
        let (reply, _) = engine.dispatch(&parse_command(cmd).unwrap());
        assert!(
            !matches!(reply, Response::Error(_)),
            "seed `{cmd}` failed: {reply:?}"
        );
    }
    let mut out = Vec::new();
    let mut lines = script.split(|&b| b == b'\n').peekable();
    while let Some(line) = lines.next() {
        let terminated = lines.peek().is_some();
        if line.len() + usize::from(terminated) > MAX_REQUEST_LINE {
            Response::Error(format!(
                "protocol: request line exceeds {MAX_REQUEST_LINE} bytes"
            ))
            .encode(&mut out);
            break;
        }
        let Ok(text) = std::str::from_utf8(line) else {
            Response::Error("protocol: request is not valid UTF-8".into()).encode(&mut out);
            break;
        };
        let text = text.trim_end_matches('\r');
        if text.is_empty() {
            continue;
        }
        let (response, control) = match parse_command(text) {
            Ok(cmd) => engine.dispatch(&cmd),
            Err(e) => (Response::Error(e.to_string()), Control::Continue),
        };
        response.encode(&mut out);
        if control != Control::Continue {
            break;
        }
    }
    out
}
