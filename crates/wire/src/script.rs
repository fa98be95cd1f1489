//! Scenario → wire-bytes rendering.
//!
//! [`wire_script`] turns a parsed `.hfs` [`Scenario`] into the exact byte
//! stream a client sends over a live socket so that a [`Timing::Virtual`]
//! farm reproduces `Scenario::replay()`'s session record bit for bit. The
//! scenario's header (start instant, client address, fetcher) and its timing
//! steps (`think`, `idle`, `transfer`) travel in-band as `@hfs` control
//! lines (see [`crate::conn`] module docs); login and command steps become
//! the protocol's own dialogue.
//!
//! [`Timing::Virtual`]: crate::Timing

use hf_geo::Ip4;
use hf_proto::Protocol;
use hf_testkit::scenario::Step;
use hf_testkit::Scenario;

/// Render the scenario as client bytes, preserving its own client address.
pub fn wire_script(sc: &Scenario) -> String {
    wire_script_as(sc, sc.client, sc.port)
}

/// Render the scenario as client bytes, overriding the recorded client
/// address — the load generator's tool for giving every loopback connection
/// a distinct attacker identity.
pub fn wire_script_as(sc: &Scenario, client: Ip4, port: u16) -> String {
    let term = match sc.protocol {
        Protocol::Ssh => "\n",
        Protocol::Telnet => "\r\n",
    };
    let mut s = String::new();
    s.push_str(&format!(
        "@hfs start {} {}{term}",
        sc.start.day(),
        sc.start.secs_of_day()
    ));
    s.push_str(&format!("@hfs client {client} {port}{term}"));
    s.push_str(&format!("@hfs fetcher {}{term}", sc.fetcher.name()));
    for step in &sc.steps {
        match step {
            Step::Banner(b) => {
                // The ident line only exists on the SSH wire; a telnet
                // replay ignores `client_banner`, so skipping it here keeps
                // the records identical without corrupting the login
                // dialogue.
                if sc.protocol == Protocol::Ssh {
                    s.push_str(b);
                    s.push_str("\r\n");
                }
            }
            Step::Think(t) => s.push_str(&format!("@hfs think {t}{term}")),
            Step::Login { user, pass } => match sc.protocol {
                Protocol::Ssh => s.push_str(&format!("USER {user}\nPASS {pass}\n")),
                Protocol::Telnet => s.push_str(&format!("{user}\r\n{pass}\r\n")),
            },
            Step::Cmd(line) => {
                s.push_str(line);
                s.push_str(term);
            }
            Step::Idle(n) => s.push_str(&format!("@hfs idle {n}{term}")),
            Step::Transfer(n) => s.push_str(&format!("@hfs transfer {n}{term}")),
            // The wire expression of a client close is EOF: stop scripting
            // and let the socket shutdown do the rest. Later steps would be
            // no-ops against a finished driver in replay too.
            Step::Close => break,
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_carries_header_and_steps_in_order() {
        let sc = Scenario::parse(
            "name s\n\
             protocol ssh\n\
             fetcher null\n\
             client 10.9.8.7\n\
             port 41234\n\
             start 3 500\n\
             banner SSH-2.0-Go\n\
             think 2\n\
             login root 1234\n\
             cmd uname -a\n\
             idle 30\n\
             transfer 60\n\
             close\n\
             cmd ignored-after-close\n",
        )
        .unwrap();
        let script = wire_script(&sc);
        let expected = "@hfs start 3 500\n\
                        @hfs client 10.9.8.7 41234\n\
                        @hfs fetcher null\n\
                        SSH-2.0-Go\r\n\
                        @hfs think 2\n\
                        USER root\nPASS 1234\n\
                        uname -a\n\
                        @hfs idle 30\n\
                        @hfs transfer 60\n";
        assert_eq!(script, expected);
    }

    #[test]
    fn telnet_script_uses_crlf_and_bare_credentials() {
        let sc = Scenario::parse(
            "name t\n\
             protocol telnet\n\
             login root hunter2\n\
             cmd uname -a\n\
             close\n",
        )
        .unwrap();
        let script = wire_script(&sc);
        assert!(script.contains("root\r\nhunter2\r\n"));
        assert!(script.contains("uname -a\r\n"));
        assert!(!script.contains("USER "));
    }

    #[test]
    fn client_override_replaces_header_address() {
        let sc = Scenario::parse("name o\nclose\n").unwrap();
        let script = wire_script_as(&sc, Ip4::new(10, 0, 0, 42), 55555);
        assert!(script.contains("@hfs client 10.0.0.42 55555\n"));
    }
}
