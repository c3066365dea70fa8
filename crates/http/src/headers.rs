//! Case-insensitive HTTP headers with deterministic iteration order.

use std::collections::BTreeMap;
use std::fmt;

/// An ordered, case-insensitive header map.
///
/// Keys are normalized to lower case for lookup but the canonical
/// `Title-Case` rendering is reconstructed for display; iteration order is
/// deterministic (sorted by normalized name) so message serialization and
/// log accounting are stable.
#[derive(Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Headers {
    map: BTreeMap<String, String>,
}

impl Headers {
    /// Creates an empty header map.
    pub fn new() -> Headers {
        Headers::default()
    }

    /// Sets a header, replacing any previous value.
    pub fn set(&mut self, name: &str, value: impl Into<String>) {
        self.map.insert(name.to_ascii_lowercase(), value.into());
    }

    /// Builder-style [`Headers::set`].
    pub fn with(mut self, name: &str, value: impl Into<String>) -> Headers {
        self.set(name, value);
        self
    }

    /// Returns the header value, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.map.get(&name.to_ascii_lowercase()).map(|s| s.as_str())
    }

    /// Removes a header, returning its previous value.
    pub fn remove(&mut self, name: &str) -> Option<String> {
        self.map.remove(&name.to_ascii_lowercase())
    }

    /// True if the header is present.
    pub fn contains(&self, name: &str) -> bool {
        self.map.contains_key(&name.to_ascii_lowercase())
    }

    /// Number of headers.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no headers are set.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates `(normalized-name, value)` pairs in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.map.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// True when `self` and `other` hold the same headers once every
    /// name matching `ignore` is left out of both — a borrowing
    /// comparison, nothing is copied.
    pub fn eq_ignoring(&self, other: &Headers, ignore: impl Fn(&str) -> bool) -> bool {
        let mine = self.map.iter().filter(|(k, _)| !ignore(k));
        let theirs = other.map.iter().filter(|(k, _)| !ignore(k));
        mine.eq(theirs)
    }

    /// Approximate wire length in bytes (`Name: value\r\n` per header).
    pub fn wire_len(&self) -> usize {
        self.map.iter().map(|(k, v)| k.len() + v.len() + 4).sum()
    }
}

impl fmt::Debug for Headers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (k, v) in &self.map {
            if !first {
                write!(f, "; ")?;
            }
            write!(f, "{}: {v}", title_case(k))?;
            first = false;
        }
        Ok(())
    }
}

impl fmt::Display for Headers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in &self.map {
            writeln!(f, "{}: {v}", title_case(k))?;
        }
        Ok(())
    }
}

impl FromIterator<(String, String)> for Headers {
    fn from_iter<T: IntoIterator<Item = (String, String)>>(iter: T) -> Headers {
        let mut h = Headers::new();
        for (k, v) in iter {
            h.set(&k, v);
        }
        h
    }
}

fn title_case(name: &str) -> String {
    name.split('-')
        .map(|part| {
            let mut cs = part.chars();
            match cs.next() {
                Some(first) => first.to_ascii_uppercase().to_string() + cs.as_str(),
                None => String::new(),
            }
        })
        .collect::<Vec<_>>()
        .join("-")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_insensitive_lookup() {
        let mut h = Headers::new();
        h.set("Aire-Request-Id", "askbot/Q1");
        assert_eq!(h.get("aire-request-id"), Some("askbot/Q1"));
        assert_eq!(h.get("AIRE-REQUEST-ID"), Some("askbot/Q1"));
        assert!(h.contains("Aire-Request-Id"));
    }

    #[test]
    fn set_replaces() {
        let mut h = Headers::new();
        h.set("cookie", "a=1");
        h.set("Cookie", "a=2");
        assert_eq!(h.len(), 1);
        assert_eq!(h.get("cookie"), Some("a=2"));
    }

    #[test]
    fn eq_ignoring_compares_only_the_kept_headers() {
        let aire = |name: &str| name.starts_with("aire-");
        let a = Headers::new()
            .with("Aire-Request-Id", "x/Q1")
            .with("Content-Type", "application/json");
        let b = Headers::new()
            .with("Aire-Request-Id", "x/Q2")
            .with("Aire-Repair", "delete")
            .with("Content-Type", "application/json");
        assert_ne!(a, b);
        assert!(a.eq_ignoring(&b, aire));
        // A kept header that differs, or is missing on one side, counts.
        assert!(!a.eq_ignoring(&b.clone().with("Content-Type", "text/plain"), aire));
        assert!(!a.eq_ignoring(&b.clone().with("Cookie", "s=1"), aire));
        assert!(!a.eq_ignoring(&b, |_| false));
    }

    #[test]
    fn display_is_title_cased_and_sorted() {
        let h = Headers::new().with("b-header", "2").with("a-header", "1");
        assert_eq!(h.to_string(), "A-Header: 1\nB-Header: 2\n");
    }

    #[test]
    fn wire_len_counts_bytes() {
        let h = Headers::new().with("k", "v");
        assert_eq!(h.wire_len(), 1 + 1 + 4);
    }
}
