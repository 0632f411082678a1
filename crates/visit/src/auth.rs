//! Connection authentication.
//!
//! §3.2 is blunt about VISIT's weakness: "a major drawback of VISIT is
//! that it does not provide any encryption or other means of security
//! except for a connection password that is transferred in clear-text."
//! We reproduce that mode faithfully ([`Password::ClearText`]) *and*
//! provide the keyed-digest mode that the UNICORE integration effectively
//! supplies ("these problems are resolved by the integration of VISIT with
//! UNICORE", §3.2): the secret never crosses the wire; a challenge/response
//! digest does.
//!
//! The digest is a toy (FNV-1a over secret‖challenge) — the reproduction
//! models *trust flow*, not cryptography (see DESIGN.md §2).

/// Authentication configuration shared by client and server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Password {
    /// No authentication at all.
    Open,
    /// The paper's clear-text connection password.
    ClearText(String),
    /// Keyed challenge/response; the secret stays local.
    Keyed(String),
}

/// 64-bit FNV-1a — the toy digest used for the keyed mode.
pub fn digest(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl Password {
    /// Bytes the client puts into its Hello payload. For `Keyed`, the
    /// `challenge` (issued out-of-band at job submission in the UNICORE
    /// integration; here passed explicitly) is mixed with the secret.
    pub fn client_token(&self, challenge: u64) -> Vec<u8> {
        match self {
            Password::Open => Vec::new(),
            Password::ClearText(p) => p.as_bytes().to_vec(),
            Password::Keyed(secret) => {
                let mut buf = secret.as_bytes().to_vec();
                buf.extend_from_slice(&challenge.to_le_bytes());
                digest(&buf).to_le_bytes().to_vec()
            }
        }
    }

    /// Server-side check of a received token.
    pub fn verify(&self, token: &[u8], challenge: u64) -> bool {
        match self {
            Password::Open => true,
            Password::ClearText(p) => token == p.as_bytes(),
            Password::Keyed(_) => self.client_token(challenge) == token,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_accepts_anything() {
        assert!(Password::Open.verify(b"", 0));
        assert!(Password::Open.verify(b"junk", 7));
    }

    #[test]
    fn cleartext_matches_exactly() {
        let p = Password::ClearText("pepc2003".into());
        assert!(p.verify(b"pepc2003", 0));
        assert!(!p.verify(b"pepc2004", 0));
        // the clear-text token IS the password — the paper's weakness
        assert_eq!(p.client_token(123), b"pepc2003".to_vec());
    }

    #[test]
    fn keyed_never_exposes_secret() {
        let p = Password::Keyed("s3cret".into());
        let token = p.client_token(42);
        assert!(!token.windows(6).any(|w| w == b"s3cret"));
        assert!(p.verify(&token, 42));
    }

    #[test]
    fn keyed_binds_challenge() {
        let p = Password::Keyed("s3cret".into());
        let token = p.client_token(42);
        // replay under a different challenge fails
        assert!(!p.verify(&token, 43));
    }

    #[test]
    fn keyed_wrong_secret_rejected() {
        let server = Password::Keyed("right".into());
        let client = Password::Keyed("wrong".into());
        let token = client.client_token(5);
        assert!(!server.verify(&token, 5));
    }

    #[test]
    fn digest_is_stable_and_spreads() {
        assert_eq!(digest(b"abc"), digest(b"abc"));
        assert_ne!(digest(b"abc"), digest(b"abd"));
        assert_ne!(digest(b""), digest(b"\0"));
    }
}
