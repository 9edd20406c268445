//! Typed 128-bit content-hash cache keys.
//!
//! The campaign result cache and serve's response cache share one
//! keying scheme: two independent FNV-1a streams (distinct offset
//! bases, one stream rotated per chunk) over a version salt plus the
//! caller's content, rendered as 32 hex digits. This module
//! owns the scheme; [`KeyBuilder`] is the typed face that replaces
//! hand-rolled `format!("…|v1|…")` descriptor strings — each field is
//! hashed as `name=value` with an explicit `\x1f` separator, so no two
//! field layouts can collide by string concatenation.

use std::fmt;

/// A computed 128-bit cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey(u64, u64);

impl CacheKey {
    /// Hex form of the key (32 digits).
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.0, self.1)
    }
}

/// Hashes one content chunk into an FNV-1a stream.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Incremental builder of a [`CacheKey`]. [`KeyBuilder::field`] frames
/// each value with its name and a separator so fields cannot bleed into
/// one another; [`KeyBuilder::text`] feeds a trailing payload.
#[derive(Debug, Clone, Copy)]
pub struct KeyBuilder {
    a: u64,
    b: u64,
}

impl KeyBuilder {
    /// Starts a key stream salted with a layout version: bump the
    /// version and every old entry becomes invisible rather than
    /// misparsed.
    pub fn new(version: u32) -> KeyBuilder {
        KeyBuilder {
            a: 0xcbf29ce484222325,
            b: 0x6c62272e07bb0142, // distinct offset basis
        }
        .chunk(format!("v{version}\u{1f}").as_bytes())
    }

    /// Feeds raw bytes into both streams.
    fn chunk(mut self, bytes: &[u8]) -> KeyBuilder {
        self.a = fnv1a(self.a, bytes);
        self.b = fnv1a(self.b, bytes).rotate_left(17);
        self
    }

    /// Feeds a named, separator-framed field.
    pub fn field(self, name: &str, value: &dyn fmt::Display) -> KeyBuilder {
        self.chunk(format!("{name}={value}\u{1f}").as_bytes())
    }

    /// Feeds a large text payload (e.g. a whole `.bench` file).
    pub fn text(self, text: &str) -> KeyBuilder {
        self.chunk(text.as_bytes())
    }

    /// Finalises the key.
    pub fn finish(self) -> CacheKey {
        CacheKey(self.a, self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_are_framed_against_concatenation() {
        let k1 = KeyBuilder::new(1)
            .field("alg", &"ab")
            .field("seed", &7)
            .finish();
        let k2 = KeyBuilder::new(1)
            .field("alg", &"a")
            .field("seed", &"b7")
            .finish();
        assert_ne!(k1, k2);
        let k3 = KeyBuilder::new(1)
            .field("alg", &"ab")
            .field("seed", &7)
            .finish();
        assert_eq!(k1, k3);
    }

    #[test]
    fn version_salts_the_stream() {
        let k1 = KeyBuilder::new(1).text("same").finish();
        let k2 = KeyBuilder::new(2).text("same").finish();
        assert_ne!(k1, k2);
    }

    #[test]
    fn hex_is_32_digits_and_stable() {
        let k = KeyBuilder::new(1).chunk(b"x").finish();
        assert_eq!(k.hex().len(), 32);
        assert_eq!(k.hex(), KeyBuilder::new(1).chunk(b"x").finish().hex());
    }
}
