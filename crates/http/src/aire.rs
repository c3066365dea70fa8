//! The `Aire-*` HTTP headers of §3.1 and typed accessors for them.
//!
//! Aire integrates its repair protocol with HTTP by adding headers during
//! normal operation:
//!
//! * every **request issued** by a web service carries
//!   [`RESPONSE_ID`] (the id the *client* assigned to the response it is
//!   about to receive) and [`NOTIFIER_URL`] (where the server can reach
//!   the client later to repair that response);
//! * every **response produced** by a web service carries [`REQUEST_ID`]
//!   (the id the *server* assigned to the request it just executed).
//!
//! Repair operations are encoded as ordinary HTTP requests plus the
//! [`REPAIR`] header naming the operation and [`REQUEST_ID`] /
//! [`BEFORE_ID`] / [`AFTER_ID`] headers naming the messages involved, so
//! "to fix a previous request, the client simply issues the corrected
//! version of the request as it normally would" (§3.1).

use aire_types::{RequestId, ResponseId};

use crate::message::{HttpRequest, HttpResponse};

/// Names the request a server executed (server-assigned, on responses; on
/// repair requests it names the request being repaired).
pub const REQUEST_ID: &str = "Aire-Request-Id";
/// Names the response a client is about to receive (client-assigned, on
/// requests).
pub const RESPONSE_ID: &str = "Aire-Response-Id";
/// Where the server can contact the client for `replace_response` (§3.1).
pub const NOTIFIER_URL: &str = "Aire-Notifier-Url";
/// The repair operation carried by this request: `replace`, `delete`,
/// `create`, or `replace_response`.
pub const REPAIR: &str = "Aire-Repair";
/// For `create`: the last past request before the splice point.
pub const BEFORE_ID: &str = "Aire-Before-Id";
/// For `create`: the first past request after the splice point.
pub const AFTER_ID: &str = "Aire-After-Id";
/// Response-repair token (sent to a notifier URL, §3.1).
pub const REPAIR_TOKEN: &str = "Aire-Repair-Token";
/// Marks the tentative timeout response substituted during local repair.
pub const TENTATIVE: &str = "Aire-Tentative";

/// True for headers owned by the Aire plumbing (ignored by canonical
/// comparison).
pub fn is_aire_header(name: &str) -> bool {
    name.as_bytes()
        .get(..5)
        .is_some_and(|prefix| prefix.eq_ignore_ascii_case(b"aire-"))
}

/// The four repair operations of Table 1, as carried by the [`REPAIR`]
/// header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RepairKind {
    /// `replace (request_id, new_request)` — replaces a past request.
    Replace,
    /// `delete (request_id)` — deletes a past request.
    Delete,
    /// `create (request_data, before_id, after_id)` — executes a new
    /// request in the past.
    Create,
    /// `replace_response (response_id, new_response)` — replaces a past
    /// response.
    ReplaceResponse,
}

impl RepairKind {
    /// Wire name used in the [`REPAIR`] header.
    pub fn as_str(self) -> &'static str {
        match self {
            RepairKind::Replace => "replace",
            RepairKind::Delete => "delete",
            RepairKind::Create => "create",
            RepairKind::ReplaceResponse => "replace_response",
        }
    }

    /// Parses the wire name.
    pub fn parse(s: &str) -> Option<RepairKind> {
        match s {
            "replace" => Some(RepairKind::Replace),
            "delete" => Some(RepairKind::Delete),
            "create" => Some(RepairKind::Create),
            "replace_response" => Some(RepairKind::ReplaceResponse),
            _ => None,
        }
    }

    /// All four operations, in Table 1 order.
    pub fn all() -> [RepairKind; 4] {
        [
            RepairKind::Replace,
            RepairKind::Delete,
            RepairKind::Create,
            RepairKind::ReplaceResponse,
        ]
    }
}

impl std::fmt::Display for RepairKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Reads the [`REQUEST_ID`] header of a response.
pub fn response_request_id(resp: &HttpResponse) -> Option<RequestId> {
    resp.headers.get(REQUEST_ID).and_then(RequestId::parse)
}

/// Reads the [`RESPONSE_ID`] header of a request.
pub fn request_response_id(req: &HttpRequest) -> Option<ResponseId> {
    req.headers.get(RESPONSE_ID).and_then(ResponseId::parse)
}

/// Reads the [`NOTIFIER_URL`] header of a request.
pub fn request_notifier_url(req: &HttpRequest) -> Option<crate::Url> {
    req.headers
        .get(NOTIFIER_URL)
        .and_then(|u| crate::Url::parse(u).ok())
}

/// Tags an outgoing request with the client-side plumbing headers.
pub fn tag_outgoing_request(
    req: &mut HttpRequest,
    response_id: &ResponseId,
    notifier_url: &crate::Url,
) {
    req.headers.set(RESPONSE_ID, response_id.wire());
    req.headers.set(NOTIFIER_URL, notifier_url.to_string());
}

/// Tags a produced response with the server-side plumbing header.
pub fn tag_response(resp: &mut HttpResponse, request_id: &RequestId) {
    resp.headers.set(REQUEST_ID, request_id.wire());
}

#[cfg(test)]
mod tests {
    use aire_types::jv;

    use super::*;
    use crate::{Method, Url};

    #[test]
    fn tag_and_read_back() {
        let mut req = HttpRequest::new(Method::Get, Url::service("oauth", "/verify"));
        let rid = ResponseId::new("askbot", 12);
        let notifier = Url::service("askbot", "/aire/notify");
        tag_outgoing_request(&mut req, &rid, &notifier);
        assert_eq!(request_response_id(&req), Some(rid));
        assert_eq!(request_notifier_url(&req), Some(notifier));

        let mut resp = HttpResponse::ok(jv!({"ok": true}));
        let qid = RequestId::new("oauth", 3);
        tag_response(&mut resp, &qid);
        assert_eq!(response_request_id(&resp), Some(qid));
    }

    #[test]
    fn header_classification() {
        assert!(is_aire_header("Aire-Request-Id"));
        assert!(is_aire_header("aire-repair"));
        assert!(!is_aire_header("Content-Type"));
        assert!(!is_aire_header("X-Aire"));
    }

    #[test]
    fn absent_headers_read_as_none() {
        let req = HttpRequest::get(Url::service("s", "/"));
        assert_eq!(request_response_id(&req), None);
        assert_eq!(request_notifier_url(&req), None);
        let resp = HttpResponse::ok(aire_types::Jv::Null);
        assert_eq!(response_request_id(&resp), None);
    }

    #[test]
    fn malformed_ids_read_as_none() {
        let req = HttpRequest::get(Url::service("s", "/")).with_header(RESPONSE_ID, "not-an-id");
        assert_eq!(request_response_id(&req), None);
    }

    #[test]
    fn repair_kind_wire_round_trip() {
        for kind in RepairKind::all() {
            assert_eq!(RepairKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(RepairKind::parse("undelete"), None);
    }
}
