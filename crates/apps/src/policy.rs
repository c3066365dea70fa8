//! Shared repair access-control policies (§4).
//!
//! The paper's ported applications all use one policy: "repair of a past
//! request only if the repair message is issued on behalf of the same
//! user who issued the past request" (§7.3, 55 lines of Python). We
//! implement that rule over cookies and bearer tokens, plus an explicit
//! administrator override used by the scenario drivers (the paper's
//! administrator likewise initiates repair out of band).

use aire_http::{Headers, HttpRequest};
use aire_web::AuthorizeCtx;

/// Header an administrator attaches to repair invocations.
pub const ADMIN_HEADER: &str = "X-Admin";

/// The (simulated) administrator secret.
pub const ADMIN_SECRET: &str = "letmein";

/// True if the credentials carry the administrator secret.
pub fn is_admin(credentials: &Headers) -> bool {
    credentials.get(ADMIN_HEADER) == Some(ADMIN_SECRET)
}

/// Extracts a bearer token from an `Authorization: Bearer x` header.
pub fn bearer(headers: &Headers) -> Option<&str> {
    headers.get("authorization")?.strip_prefix("Bearer ")
}

/// The credential identity of a request: its session cookie or bearer
/// token, whichever is present.
pub fn principal_credential(req: &HttpRequest) -> Option<String> {
    if let Some(cookie) = aire_http::cookie::request_cookie(req, "sessionid") {
        return Some(format!("cookie:{cookie}"));
    }
    bearer(&req.headers).map(|t| format!("bearer:{t}"))
}

/// Credential identity carried by loose headers (the `delete` carrier).
pub fn headers_credential(headers: &Headers) -> Option<String> {
    if let Some(cookie) = headers.get("cookie") {
        let parsed = aire_http::cookie::parse_cookie_header(cookie);
        if let Some(sid) = parsed.get("sessionid") {
            return Some(format!("cookie:{sid}"));
        }
    }
    bearer(headers).map(|t| format!("bearer:{t}"))
}

/// Header carrying a second authentication factor for repair operations.
///
/// §4's example: "a service might require a stronger form of
/// authentication (e.g., Google's two-step authentication) when a client
/// issues a repair operation than when it issues a normal operation."
pub const SECOND_FACTOR_HEADER: &str = "X-Second-Factor";

/// The stronger §4 policy: the same-principal rule *plus* a second
/// factor that `verify` accepts. Normal operations are unaffected — only
/// repair pays the extra cost.
pub fn two_step(az: &AuthorizeCtx<'_>, verify: impl Fn(&str) -> bool) -> bool {
    if !same_principal(az) {
        return false;
    }
    let code = az.credentials.get(SECOND_FACTOR_HEADER).or_else(|| {
        az.repaired_request
            .and_then(|r| r.headers.get(SECOND_FACTOR_HEADER))
    });
    match code {
        Some(code) => verify(code),
        None => false,
    }
}

/// The most restrictive policy: only out-of-band administrators may
/// repair ("others may allow only users with special privileges", §4).
pub fn admin_only(az: &AuthorizeCtx<'_>) -> bool {
    is_admin(az.credentials)
        || az
            .repaired_request
            .is_some_and(|r| r.headers.get(ADMIN_HEADER) == Some(ADMIN_SECRET))
}

/// The same-principal policy (§7.2/§7.3): allow if the repair message
/// presents the administrator secret, or the same cookie/bearer identity
/// as the original request. `create` operations (no original) require
/// the new request to carry *some* credential; request re-execution then
/// applies the application's normal authorization.
pub fn same_principal(az: &AuthorizeCtx<'_>) -> bool {
    if is_admin(az.credentials) {
        return true;
    }
    if let Some(repaired) = az.repaired_request {
        if repaired.headers.get(ADMIN_HEADER) == Some(ADMIN_SECRET) {
            return true;
        }
    }
    let offered = az
        .repaired_request
        .and_then(principal_credential)
        .or_else(|| headers_credential(az.credentials));
    match az.original_request {
        Some(original) => match (principal_credential(original), offered) {
            // Anonymous original requests (no credential at all) may be
            // repaired by anonymous clients — they carry no authority.
            (None, _) => true,
            (Some(orig), Some(off)) => orig == off,
            (Some(_), None) => false,
        },
        // `create`: demand a credential; the handler's own checks run
        // during execution.
        None => offered.is_some(),
    }
}

#[cfg(test)]
mod tests {
    use aire_http::aire::RepairKind;
    use aire_http::{Method, Url};
    use aire_types::Jv;
    use aire_vdb::Filter;
    use aire_web::DbSnapshot;

    use super::*;

    struct NoDb;

    impl DbSnapshot for NoDb {
        fn get(&self, _t: &str, _id: u64) -> Option<Jv> {
            None
        }

        fn scan(&self, _t: &str, _f: &Filter) -> Vec<(u64, Jv)> {
            Vec::new()
        }
    }

    fn az_ctx<'a>(
        original: Option<&'a HttpRequest>,
        repaired: Option<&'a HttpRequest>,
        credentials: &'a Headers,
        db: &'a NoDb,
    ) -> AuthorizeCtx<'a> {
        AuthorizeCtx {
            kind: RepairKind::Delete,
            original_request: original,
            repaired_request: repaired,
            original_response: None,
            repaired_response: None,
            credentials,
            db,
            db_now: db,
        }
    }

    fn req_with_cookie(sid: &str) -> HttpRequest {
        HttpRequest::new(Method::Get, Url::service("s", "/"))
            .with_header("Cookie", format!("sessionid={sid}"))
    }

    #[test]
    fn admin_secret_allows() {
        let db = NoDb;
        let orig = req_with_cookie("abc");
        let creds = Headers::new().with(ADMIN_HEADER, ADMIN_SECRET);
        assert!(same_principal(&az_ctx(Some(&orig), None, &creds, &db)));
    }

    #[test]
    fn same_cookie_allows_different_cookie_denies() {
        let db = NoDb;
        let orig = req_with_cookie("abc");
        let same = Headers::new().with("Cookie", "sessionid=abc");
        let other = Headers::new().with("Cookie", "sessionid=zzz");
        let none = Headers::new();
        assert!(same_principal(&az_ctx(Some(&orig), None, &same, &db)));
        assert!(!same_principal(&az_ctx(Some(&orig), None, &other, &db)));
        assert!(!same_principal(&az_ctx(Some(&orig), None, &none, &db)));
    }

    #[test]
    fn bearer_identity_matches() {
        let db = NoDb;
        let orig = HttpRequest::new(Method::Get, Url::service("s", "/"))
            .with_header("Authorization", "Bearer tok1");
        let same = Headers::new().with("Authorization", "Bearer tok1");
        let other = Headers::new().with("Authorization", "Bearer tok2");
        assert!(same_principal(&az_ctx(Some(&orig), None, &same, &db)));
        assert!(!same_principal(&az_ctx(Some(&orig), None, &other, &db)));
    }

    #[test]
    fn anonymous_originals_are_repairable() {
        let db = NoDb;
        let orig = HttpRequest::new(Method::Get, Url::service("s", "/"));
        let none = Headers::new();
        assert!(same_principal(&az_ctx(Some(&orig), None, &none, &db)));
    }

    #[test]
    fn two_step_requires_both_factors() {
        let db = NoDb;
        let orig = req_with_cookie("abc");
        let verify = |code: &str| code == "123456";
        // Same principal but no second factor: denied.
        let first_only = Headers::new().with("Cookie", "sessionid=abc");
        assert!(!two_step(
            &az_ctx(Some(&orig), None, &first_only, &db),
            verify
        ));
        // Second factor but wrong principal: denied.
        let second_only = Headers::new()
            .with("Cookie", "sessionid=zzz")
            .with(SECOND_FACTOR_HEADER, "123456");
        assert!(!two_step(
            &az_ctx(Some(&orig), None, &second_only, &db),
            verify
        ));
        // Both, but a wrong code: denied.
        let wrong_code = Headers::new()
            .with("Cookie", "sessionid=abc")
            .with(SECOND_FACTOR_HEADER, "000000");
        assert!(!two_step(
            &az_ctx(Some(&orig), None, &wrong_code, &db),
            verify
        ));
        // Both correct: allowed.
        let both = Headers::new()
            .with("Cookie", "sessionid=abc")
            .with(SECOND_FACTOR_HEADER, "123456");
        assert!(two_step(&az_ctx(Some(&orig), None, &both, &db), verify));
    }

    #[test]
    fn admin_only_rejects_everyone_else() {
        let db = NoDb;
        let orig = req_with_cookie("abc");
        let same = Headers::new().with("Cookie", "sessionid=abc");
        assert!(!admin_only(&az_ctx(Some(&orig), None, &same, &db)));
        let admin = Headers::new().with(ADMIN_HEADER, ADMIN_SECRET);
        assert!(admin_only(&az_ctx(Some(&orig), None, &admin, &db)));
    }

    #[test]
    fn create_requires_some_credential() {
        let db = NoDb;
        let anon = HttpRequest::new(Method::Get, Url::service("s", "/"));
        let authed = req_with_cookie("abc");
        let none = Headers::new();
        assert!(!same_principal(&az_ctx(None, Some(&anon), &none, &db)));
        assert!(same_principal(&az_ctx(None, Some(&authed), &none, &db)));
    }
}
