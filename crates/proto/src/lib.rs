//! Protocol substrate for the honeyfarm honeypot.
//!
//! Cowrie speaks two attack-facing protocols: SSH (port 22) and Telnet
//! (port 23). The paper's analysis uses exactly three protocol-level facts:
//! which protocol a session used, the client's SSH version string from the
//! identification exchange, and the credentials offered at login. This crate
//! implements those pieces from scratch:
//!
//! - [`ssh_ident`]: RFC 4253 §4.2 identification-string generation and
//!   parsing (the plaintext `SSH-2.0-...` exchange that precedes key
//!   exchange) plus a catalog of client banners seen in the wild,
//! - [`telnet`]: a minimal Telnet NVT codec — IAC command/option negotiation
//!   and line extraction, enough to drive a login dialogue,
//! - [`creds`]: username/password credentials and the honeypot auth policy
//!   type.
//!
//! Full SSH cryptography is intentionally out of scope (see DESIGN.md): the
//! paper never inspects it, and the honeypot's analytical surface — banner,
//! credentials, shell activity — is preserved without it.

pub mod creds;
pub mod ssh_ident;
pub mod telnet;

/// Attack-facing protocol of a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Protocol {
    /// SSH on port 22.
    Ssh,
    /// Telnet on port 23.
    Telnet,
}

impl Protocol {
    /// Well-known TCP port.
    pub fn port(self) -> u16 {
        match self {
            Protocol::Ssh => 22,
            Protocol::Telnet => 23,
        }
    }

    /// Label used in logs and tables.
    pub fn label(self) -> &'static str {
        match self {
            Protocol::Ssh => "ssh",
            Protocol::Telnet => "telnet",
        }
    }
}

impl std::fmt::Display for Protocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ports() {
        assert_eq!(Protocol::Ssh.port(), 22);
        assert_eq!(Protocol::Telnet.port(), 23);
    }

    #[test]
    fn labels() {
        assert_eq!(Protocol::Ssh.to_string(), "ssh");
        assert_eq!(Protocol::Telnet.to_string(), "telnet");
    }
}
