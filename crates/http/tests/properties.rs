//! Property tests on the HTTP substrate: URL round-trips (including
//! percent-encoded query components), header case-insensitivity,
//! message serialization, and cookie handling.

use std::collections::BTreeMap;

use aire_http::cookie::{parse_cookie_header, render_cookie_header};
use aire_http::{Headers, HttpRequest, HttpResponse, Method, Status, Url};
use aire_types::{jv, Jv};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// parse(display(url)) == url, with query keys/values that need
    /// percent-encoding.
    #[test]
    fn prop_url_round_trip(
        host in "[a-z][a-z0-9-]{0,12}",
        path_segments in prop::collection::vec("[a-zA-Z0-9_.-]{1,8}", 0..4),
        query in prop::collection::btree_map("[a-z]{1,6}", "[ -~]{0,12}", 0..4),
    ) {
        let mut url = Url::service(host, format!("/{}", path_segments.join("/")));
        for (k, v) in &query {
            url = url.with_query(k, v);
        }
        let text = url.to_string();
        let back = Url::parse(&text).expect("self-produced URL must parse");
        prop_assert_eq!(back, url);
    }

    /// Header names are case-insensitive; last set wins; removal works.
    #[test]
    fn prop_headers_case_insensitive(name in "[A-Za-z][A-Za-z-]{0,14}", v1 in "[ -~]{0,12}", v2 in "[ -~]{0,12}") {
        let mut h = Headers::new();
        h.set(&name, v1);
        h.set(&name.to_ascii_uppercase(), v2.clone());
        prop_assert_eq!(h.len(), 1, "same name must collapse");
        prop_assert_eq!(h.get(&name.to_ascii_lowercase()), Some(v2.as_str()));
        h.remove(&name.to_ascii_uppercase());
        prop_assert!(h.is_empty());
    }

    /// HttpRequest and HttpResponse survive their Jv serialization.
    #[test]
    fn prop_message_round_trip(
        path in "/[a-z0-9/]{0,16}",
        header_val in "[ -~]{0,16}",
        body_text in "[ -~]{0,24}",
        status in prop::sample::select(vec![200u16, 201, 400, 401, 403, 404, 409, 410, 503]),
    ) {
        let req = HttpRequest::post(
            Url::service("svc", path.clone()),
            jv!({"text": body_text.clone(), "n": 7}),
        )
        .with_header("X-Test", header_val.clone());
        let back = HttpRequest::from_jv(&Jv::decode(&req.to_jv().encode()).unwrap()).unwrap();
        prop_assert_eq!(&back, &req);

        let resp = HttpResponse::new(Status(status), jv!({"echo": body_text}))
            .with_header("X-Test", header_val);
        let back = HttpResponse::from_jv(&Jv::decode(&resp.to_jv().encode()).unwrap()).unwrap();
        prop_assert_eq!(&back, &resp);
    }

    /// Cookie headers round-trip through render/parse.
    #[test]
    fn prop_cookie_round_trip(cookies in prop::collection::btree_map("[a-z]{1,8}", "[a-zA-Z0-9]{0,12}", 0..5)) {
        let rendered = render_cookie_header(&cookies);
        let parsed = parse_cookie_header(&rendered);
        let expected: BTreeMap<String, String> = cookies
            .into_iter()
            .filter(|(_, v)| !v.is_empty())
            .collect();
        // Parsing ignores empty values the same way browsers do; compare
        // on the non-empty subset.
        for (k, v) in &expected {
            prop_assert_eq!(parsed.get(k), Some(v));
        }
    }

    /// `canonical_eq` ignores exactly the Aire headers and nothing else.
    #[test]
    fn prop_canonical_eq_ignores_only_aire(extra in "[a-z]{1,10}") {
        let plain = HttpRequest::get(Url::service("s", "/x"))
            .with_header(&format!("x-{extra}"), "kept");
        let tagged = plain
            .clone()
            .with_header("Aire-Request-Id", "s/Q1")
            .with_header("Aire-Notifier-Url", "https://c/aire/notify");
        prop_assert!(tagged.canonical_eq(&plain));
        prop_assert!(plain.canonical_eq(&tagged));
        let changed = tagged.clone().with_header(&format!("x-{extra}"), "changed");
        prop_assert!(!changed.canonical_eq(&plain));
        let mut dropped = tagged;
        dropped.headers.remove(&format!("x-{extra}"));
        prop_assert!(!dropped.canonical_eq(&plain));
    }
}

#[test]
fn url_parse_rejects_malformed() {
    for bad in ["", "nohost", "://x/", "http://", "http:///path"] {
        assert!(Url::parse(bad).is_err(), "{bad:?} should not parse");
    }
}

#[test]
fn method_parse_rejects_unknown() {
    assert!("BREW".parse::<Method>().is_err());
    assert_eq!("GET".parse::<Method>().unwrap(), Method::Get);
}
