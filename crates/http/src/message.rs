//! HTTP request and response messages.

use aire_types::Jv;

use crate::headers::Headers;
use crate::method::Method;
use crate::status::Status;
use crate::url::Url;

/// An HTTP request with a structured [`Jv`] body.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct HttpRequest {
    /// Request method.
    pub method: Method,
    /// Target URL; `url.host` is the service name on the simulated network.
    pub url: Url,
    /// Headers, including any `Aire-*` plumbing.
    pub headers: Headers,
    /// Body. `Jv::Null` for body-less requests; form posts use `Jv::Map`.
    pub body: Jv,
}

impl HttpRequest {
    /// Creates a request with an empty body.
    pub fn new(method: Method, url: Url) -> HttpRequest {
        HttpRequest {
            method,
            url,
            headers: Headers::new(),
            body: Jv::Null,
        }
    }

    /// Convenience GET constructor.
    pub fn get(url: Url) -> HttpRequest {
        HttpRequest::new(Method::Get, url)
    }

    /// Convenience POST constructor with a body.
    pub fn post(url: Url, body: Jv) -> HttpRequest {
        HttpRequest {
            method: Method::Post,
            url,
            headers: Headers::new(),
            body,
        }
    }

    /// Builder-style header setter.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> HttpRequest {
        self.headers.set(name, value);
        self
    }

    /// Builder-style body setter.
    pub fn with_body(mut self, body: Jv) -> HttpRequest {
        self.body = body;
        self
    }

    /// True when `other` is the same logical request: method, URL, body
    /// and every header except the volatile `Aire-*` ones agree.
    ///
    /// Two executions of the same logical request carry different Aire
    /// identifiers; the repair controller compares this way — by
    /// reference, copying nothing — to decide whether a re-executed
    /// outgoing call diverged (§3.2).
    pub fn canonical_eq(&self, other: &HttpRequest) -> bool {
        self.method == other.method
            && self.url == other.url
            && self
                .headers
                .eq_ignoring(&other.headers, crate::aire::is_aire_header)
            && self.body == other.body
    }

    /// Approximate wire size in bytes (request line + headers + body).
    pub fn wire_len(&self) -> usize {
        self.method.as_str().len()
            + self.url.to_string().len()
            + 12
            + self.headers.wire_len()
            + self.body.encoded_len()
    }

    /// Serializes to a [`Jv`] map (for logs and repair-message payloads).
    pub fn to_jv(&self) -> Jv {
        let mut m = Jv::map();
        m.set("method", Jv::s(self.method.as_str()));
        m.set("url", Jv::s(self.url.to_string()));
        m.set(
            "headers",
            Jv::Map(
                self.headers
                    .iter()
                    .map(|(k, v)| (k.to_string(), Jv::s(v)))
                    .collect(),
            ),
        );
        m.set("body", self.body.clone());
        m
    }

    /// Deserializes from the [`HttpRequest::to_jv`] form.
    pub fn from_jv(v: &Jv) -> Result<HttpRequest, String> {
        let method = v.str_of("method").parse::<Method>()?;
        let url = Url::parse(v.str_of("url"))?;
        let headers = v
            .get("headers")
            .as_map()
            .map(|m| {
                m.iter()
                    .map(|(k, v)| (k.clone(), v.as_str().unwrap_or("").to_string()))
                    .collect::<Headers>()
            })
            .unwrap_or_default();
        Ok(HttpRequest {
            method,
            url,
            headers,
            body: v.get("body").clone(),
        })
    }

    /// One-line human-readable summary, e.g. `POST askbot/questions/new`.
    pub fn summary(&self) -> String {
        format!("{} {}{}", self.method, self.url.host, self.url.path)
    }
}

/// An HTTP response with a structured [`Jv`] body.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct HttpResponse {
    /// Status code.
    pub status: Status,
    /// Headers, including any `Aire-*` plumbing.
    pub headers: Headers,
    /// Body.
    pub body: Jv,
}

impl HttpResponse {
    /// Creates a response.
    pub fn new(status: Status, body: Jv) -> HttpResponse {
        HttpResponse {
            status,
            headers: Headers::new(),
            body,
        }
    }

    /// 200 OK with a body.
    pub fn ok(body: Jv) -> HttpResponse {
        HttpResponse::new(Status::OK, body)
    }

    /// An error response with a reason in the body.
    pub fn error(status: Status, reason: impl Into<String>) -> HttpResponse {
        let mut body = Jv::map();
        body.set("error", Jv::s(reason.into()));
        HttpResponse::new(status, body)
    }

    /// The tentative timeout response local repair substitutes for an
    /// in-flight `create`/`replace` call (§3.2). Marked with a header so
    /// tests can distinguish it from a genuine remote timeout.
    pub fn repair_timeout() -> HttpResponse {
        let mut r = HttpResponse::error(Status::TIMEOUT, "aire: response pending repair");
        r.headers.set("Aire-Tentative", "1");
        r
    }

    /// True if this is the tentative repair-timeout response.
    pub fn is_repair_timeout(&self) -> bool {
        self.status == Status::TIMEOUT && self.headers.contains("Aire-Tentative")
    }

    /// Builder-style header setter.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> HttpResponse {
        self.headers.set(name, value);
        self
    }

    /// True when `other` is the same logical response: status, body and
    /// every header except the volatile `Aire-*` ones agree (see
    /// [`HttpRequest::canonical_eq`]).
    pub fn canonical_eq(&self, other: &HttpResponse) -> bool {
        self.status == other.status
            && self
                .headers
                .eq_ignoring(&other.headers, crate::aire::is_aire_header)
            && self.body == other.body
    }

    /// Approximate wire size in bytes.
    pub fn wire_len(&self) -> usize {
        16 + self.headers.wire_len() + self.body.encoded_len()
    }

    /// Serializes to a [`Jv`] map.
    pub fn to_jv(&self) -> Jv {
        let mut m = Jv::map();
        m.set("status", Jv::i(self.status.0 as i64));
        m.set(
            "headers",
            Jv::Map(
                self.headers
                    .iter()
                    .map(|(k, v)| (k.to_string(), Jv::s(v)))
                    .collect(),
            ),
        );
        m.set("body", self.body.clone());
        m
    }

    /// Deserializes from the [`HttpResponse::to_jv`] form.
    pub fn from_jv(v: &Jv) -> Result<HttpResponse, String> {
        let status =
            Status(u16::try_from(v.int_of("status")).map_err(|_| "bad status".to_string())?);
        let headers = v
            .get("headers")
            .as_map()
            .map(|m| {
                m.iter()
                    .map(|(k, v)| (k.clone(), v.as_str().unwrap_or("").to_string()))
                    .collect::<Headers>()
            })
            .unwrap_or_default();
        Ok(HttpResponse {
            status,
            headers,
            body: v.get("body").clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use aire_types::jv;

    use super::*;

    fn sample_request() -> HttpRequest {
        HttpRequest::post(
            Url::parse("https://askbot/questions/new").unwrap(),
            jv!({"title": "How?", "body": "Like this."}),
        )
        .with_header("Cookie", "sessionid=abc")
        .with_header("Aire-Response-Id", "askbot/R4")
    }

    #[test]
    fn request_jv_round_trip() {
        let r = sample_request();
        let v = r.to_jv();
        assert_eq!(HttpRequest::from_jv(&v).unwrap(), r);
        // And through the text codec, as repair messages do.
        let decoded = Jv::decode(&v.encode()).unwrap();
        assert_eq!(HttpRequest::from_jv(&decoded).unwrap(), r);
    }

    #[test]
    fn response_jv_round_trip() {
        let r = HttpResponse::ok(jv!({"id": 7})).with_header("Aire-Request-Id", "askbot/Q9");
        let v = r.to_jv();
        assert_eq!(HttpResponse::from_jv(&v).unwrap(), r);
    }

    #[test]
    fn canonical_eq_ignores_aire_headers_only() {
        let r = sample_request();
        // Two requests differing only in Aire ids compare equal canonically.
        let mut r2 = sample_request();
        r2.headers.set("Aire-Response-Id", "askbot/R99");
        r2.headers
            .set("Aire-Notifier-Url", "https://askbot/aire/notify");
        assert_ne!(r, r2);
        assert!(r.canonical_eq(&r2));
        // Anything else that differs is a different request.
        assert!(!r.canonical_eq(&r2.clone().with_header("Cookie", "sessionid=xyz")));
        assert!(!r.canonical_eq(&r2.clone().with_body(jv!({"title": "Why?"}))));
        let mut other_url = r2.clone();
        other_url.url = Url::parse("https://askbot/questions/old").unwrap();
        assert!(!r.canonical_eq(&other_url));
        let mut other_method = r2;
        other_method.method = Method::Get;
        assert!(!r.canonical_eq(&other_method));
    }

    #[test]
    fn response_canonical_eq_ignores_aire_headers_only() {
        let a = HttpResponse::ok(jv!({"id": 7})).with_header("Aire-Request-Id", "askbot/Q9");
        let b = HttpResponse::ok(jv!({"id": 7})).with_header("Aire-Request-Id", "askbot/Q10");
        assert_ne!(a, b);
        assert!(a.canonical_eq(&b));
        assert!(!a.canonical_eq(&HttpResponse::ok(jv!({"id": 8}))));
        assert!(!a.canonical_eq(&HttpResponse::new(Status::NOT_FOUND, jv!({"id": 7}))));
        assert!(!a.canonical_eq(&b.with_header("Set-Cookie", "s=1")));
    }

    #[test]
    fn repair_timeout_is_recognizable() {
        let t = HttpResponse::repair_timeout();
        assert!(t.is_repair_timeout());
        assert!(t.status.is_error());
        assert!(!HttpResponse::error(Status::TIMEOUT, "real timeout").is_repair_timeout());
    }

    #[test]
    fn wire_len_tracks_content() {
        let small = HttpRequest::get(Url::service("s", "/"));
        let big = HttpRequest::post(Url::service("s", "/"), jv!({"data": "x".repeat(1000)}));
        assert!(big.wire_len() > small.wire_len() + 900);
    }

    #[test]
    fn from_jv_rejects_bad_method() {
        let mut v = sample_request().to_jv();
        v.set("method", Jv::s("BREW"));
        assert!(HttpRequest::from_jv(&v).is_err());
    }
}
