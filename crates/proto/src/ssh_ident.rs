//! RFC 4253 §4.2 SSH identification strings.
//!
//! The SSH protocol begins with a plaintext identification line from each
//! side: `SSH-protoversion-softwareversion SP comments CR LF`. This exchange
//! happens *before* key exchange, which is why Cowrie (and our honeypot) can
//! record the client's software version for every session without
//! implementing any cryptography. RFC 4253 also allows the server to send
//! other lines before its identification string, and caps the line at 255
//! bytes including CRLF.

/// Maximum identification line length including CR LF (RFC 4253 §4.2).
pub const MAX_IDENT_LEN: usize = 255;

/// A parsed SSH identification string.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SshIdent {
    /// Protocol version, e.g. `"2.0"` (or `"1.99"` for compat servers).
    pub proto_version: String,
    /// Software name and version, e.g. `"OpenSSH_8.9p1"`.
    pub software: String,
    /// Optional comments field after the first space.
    pub comments: Option<String>,
}

/// Why an identification line failed to parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdentError {
    /// Line does not begin with `SSH-`.
    MissingPrefix,
    /// No dash after the protocol version.
    MissingVersionSeparator,
    /// Protocol version or software field is empty.
    EmptyField,
    /// Line exceeds 255 bytes including CRLF.
    TooLong,
    /// Contains bytes outside printable US-ASCII (excluding space and minus
    /// rules relaxed for the comments field).
    BadByte,
}

impl std::fmt::Display for IdentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            IdentError::MissingPrefix => "identification line must start with 'SSH-'",
            IdentError::MissingVersionSeparator => "missing '-' after protocol version",
            IdentError::EmptyField => "empty protocol-version or software field",
            IdentError::TooLong => "identification line exceeds 255 bytes",
            IdentError::BadByte => "identification line contains non-printable bytes",
        };
        f.write_str(s)
    }
}

impl std::error::Error for IdentError {}

impl SshIdent {
    /// Build an identification struct (unvalidated fields; rendering adds the
    /// framing).
    pub fn new(proto_version: &str, software: &str, comments: Option<&str>) -> Self {
        SshIdent {
            proto_version: proto_version.to_string(),
            software: software.to_string(),
            comments: comments.map(|c| c.to_string()),
        }
    }

    /// Render the on-wire line *without* the trailing CR LF.
    pub fn render(&self) -> String {
        match &self.comments {
            Some(c) => format!("SSH-{}-{} {}", self.proto_version, self.software, c),
            None => format!("SSH-{}-{}", self.proto_version, self.software),
        }
    }

    /// Render the full on-wire bytes including CR LF.
    pub fn wire_bytes(&self) -> Vec<u8> {
        let mut v = self.render().into_bytes();
        v.extend_from_slice(b"\r\n");
        v
    }

    /// Parse an identification line. Accepts lines with or without the
    /// trailing CR/LF, enforcing the RFC's 255-byte cap and US-ASCII rule.
    pub fn parse(line: &str) -> Result<SshIdent, IdentError> {
        let line = line.trim_end_matches(['\r', '\n']);
        if line.len() + 2 > MAX_IDENT_LEN {
            return Err(IdentError::TooLong);
        }
        if line.bytes().any(|b| !(0x20..0x7f).contains(&b)) {
            return Err(IdentError::BadByte);
        }
        let rest = line.strip_prefix("SSH-").ok_or(IdentError::MissingPrefix)?;
        let dash = rest.find('-').ok_or(IdentError::MissingVersionSeparator)?;
        let proto_version = &rest[..dash];
        let tail = &rest[dash + 1..];
        let (software, comments) = match tail.find(' ') {
            Some(sp) => (&tail[..sp], Some(tail[sp + 1..].to_string())),
            None => (tail, None),
        };
        if proto_version.is_empty() || software.is_empty() {
            return Err(IdentError::EmptyField);
        }
        Ok(SshIdent {
            proto_version: proto_version.to_string(),
            software: software.to_string(),
            comments,
        })
    }
}

impl std::fmt::Display for SshIdent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Client software banners commonly observed by SSH honeypots, used by the
/// traffic generator. Mix of legitimate clients, scan tools, and libraries —
/// the kinds of stacks Ghiëtte et al. fingerprinted (Related Work).
pub const CLIENT_BANNERS: &[&str] = &[
    "SSH-2.0-OpenSSH_8.9p1",
    "SSH-2.0-OpenSSH_7.4",
    "SSH-2.0-OpenSSH_8.2p1 Ubuntu-4ubuntu0.5",
    "SSH-2.0-libssh2_1.10.0",
    "SSH-2.0-libssh_0.9.6",
    "SSH-2.0-Go",
    "SSH-2.0-paramiko_2.11.0",
    "SSH-2.0-JSCH-0.1.54",
    "SSH-2.0-PUTTY",
    "SSH-2.0-Granados-1.0",
    "SSH-2.0-sshlib-0.1",
    "SSH-2.0-Zgrab",
];

/// The server banner our honeypot presents (an OpenSSH look-alike, as Cowrie
/// does by default).
pub fn server_ident() -> SshIdent {
    SshIdent::new("2.0", "OpenSSH_8.2p1", Some("Debian-4"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parse_plain() {
        let id = SshIdent::parse("SSH-2.0-OpenSSH_8.9p1").unwrap();
        assert_eq!(id.proto_version, "2.0");
        assert_eq!(id.software, "OpenSSH_8.9p1");
        assert_eq!(id.comments, None);
    }

    #[test]
    fn parse_with_comments_and_crlf() {
        let id = SshIdent::parse("SSH-2.0-OpenSSH_8.2p1 Ubuntu-4ubuntu0.5\r\n").unwrap();
        assert_eq!(id.software, "OpenSSH_8.2p1");
        assert_eq!(id.comments.as_deref(), Some("Ubuntu-4ubuntu0.5"));
    }

    #[test]
    fn parse_v1() {
        let id = SshIdent::parse("SSH-1.5-Cisco-1.25").unwrap();
        assert_eq!(id.proto_version, "1.5");
    }

    #[test]
    fn parse_errors() {
        assert_eq!(
            SshIdent::parse("HTTP/1.1 400"),
            Err(IdentError::MissingPrefix)
        );
        assert_eq!(
            SshIdent::parse("SSH-2.0"),
            Err(IdentError::MissingVersionSeparator)
        );
        assert_eq!(SshIdent::parse("SSH--x"), Err(IdentError::EmptyField));
        assert_eq!(SshIdent::parse("SSH-2.0-"), Err(IdentError::EmptyField));
        let long = format!("SSH-2.0-{}", "x".repeat(300));
        assert_eq!(SshIdent::parse(&long), Err(IdentError::TooLong));
        assert_eq!(
            SshIdent::parse("SSH-2.0-x\u{7f}y"),
            Err(IdentError::BadByte)
        );
    }

    #[test]
    fn render_roundtrip() {
        let id = SshIdent::new("2.0", "OpenSSH_8.2p1", Some("Debian-4"));
        assert_eq!(SshIdent::parse(&id.render()).unwrap(), id);
        assert!(id.wire_bytes().ends_with(b"\r\n"));
    }

    #[test]
    fn banner_catalog_all_parse() {
        for b in CLIENT_BANNERS {
            let id = SshIdent::parse(b).unwrap_or_else(|e| panic!("{b}: {e}"));
            assert_eq!(id.proto_version, "2.0", "{b} should be v2");
        }
    }

    #[test]
    fn server_ident_is_valid() {
        let id = server_ident();
        assert_eq!(SshIdent::parse(&id.render()).unwrap(), id);
    }

    proptest! {
        /// Any ident we can render from sane fields parses back to itself.
        #[test]
        fn prop_render_parse_roundtrip(
            ver in "[0-9]\\.[0-9]{1,2}",
            sw in "[A-Za-z][A-Za-z0-9_.]{0,20}",
            comments in proptest::option::of("[ -~&&[^ ]][ -~]{0,20}"),
        ) {
            let id = SshIdent::new(&ver, &sw, comments.as_deref());
            let parsed = SshIdent::parse(&id.render()).unwrap();
            prop_assert_eq!(parsed.proto_version, id.proto_version);
            prop_assert_eq!(parsed.software, id.software);
        }
    }
}
