//! Paper-format renderers for every table and figure.
//!
//! Each `render_*` function returns the text block the `report` binary
//! prints; tests assert the structure.

use aire_apps::apis;
use aire_http::aire::RepairKind;

use crate::overhead::OverheadResult;
use crate::scenarios::ServiceRepairMetrics;

/// Table 1: the repair protocol.
pub fn render_table1() -> String {
    let rows = [
        (
            "replace (request_id, new_request)",
            "Replaces past request with new data",
        ),
        ("delete (request_id)", "Deletes past request"),
        (
            "create (request_data, before_id, after_id)",
            "Executes new request in the past",
        ),
        (
            "replace_response (response_id, new_response)",
            "Replaces past response with new data",
        ),
    ];
    let mut out = String::from("Table 1: The repair protocol between Aire servers.\n");
    out.push_str(&format!(
        "{:<48} {}\n",
        "Command and parameters", "Description"
    ));
    for (cmd, desc) in rows {
        out.push_str(&format!("{cmd:<48} {desc}\n"));
    }
    // Sanity: the implementation exports exactly these four operations.
    assert_eq!(RepairKind::all().len(), 4);
    out
}

/// Table 2: the Aire ↔ web-service interface.
pub fn render_table2() -> String {
    let mut out = String::from("Table 2: The interface between Aire and the web service.\n");
    out.push_str("Implemented by the web service, invoked by Aire:\n");
    out.push_str(
        "  authorize (repair_type, original, repaired)      App::authorize_repair / App::authorize_replace_response\n",
    );
    out.push_str(
        "  notify (msg_id, repair_type, original, repaired, error)   App::notify(RepairProblem)\n",
    );
    out.push_str("Implemented by Aire, invoked by the web service:\n");
    out.push_str(
        "  retry (msg_id, updated_repair_type, updated_message)      POST /aire/v1/admin/retry (Controller::retry)\n",
    );
    out.push_str(
        "(the full admin surface is a wire API: POST /aire/v1/admin/<op>, see aire-core::admin)\n",
    );
    out
}

/// Table 3: kinds of interfaces provided by popular web-service APIs.
pub fn render_table3() -> String {
    let mut out =
        String::from("Table 3: Kinds of interfaces provided by popular web service APIs.\n");
    out.push_str(&format!(
        "{:<14} {:<12} {:<10} {}\n",
        "Service", "Simple CRUD", "Versioned", "Description"
    ));
    for e in apis::table3() {
        out.push_str(&format!(
            "{:<14} {:<12} {:<10} {}\n",
            e.service,
            if e.simple_crud { "yes" } else { "" },
            if e.versioned { "yes" } else { "" },
            e.description
        ));
    }
    out.push_str("\nInterface classes reproduced by this crate:\n");
    out.push_str(&format!(
        "  Simple CRUD -> {}\n",
        apis::InterfaceClass::SimpleCrud.reproduced_by()
    ));
    out.push_str(&format!(
        "  Versioned   -> {}\n",
        apis::InterfaceClass::Versioned.reproduced_by()
    ));
    out
}

/// Table 4: Aire overheads for the Askbot workloads.
pub fn render_table4(results: &[OverheadResult]) -> String {
    let mut out = String::from(
        "Table 4: Aire overheads for creating questions and reading the question list.\n",
    );
    out.push_str(&format!(
        "{:<10} {:>14} {:>14} {:>10} {:>14} {:>12}\n",
        "Workload", "No Aire (req/s)", "Aire (req/s)", "CPU ovh", "App log/req", "DB/req"
    ));
    for r in results {
        out.push_str(&format!(
            "{:<10} {:>14.2} {:>14.2} {:>9.1}% {:>11.2} KB {:>9.2} KB\n",
            r.workload.label(),
            r.bare_throughput,
            r.aire_throughput,
            r.cpu_overhead_percent(),
            r.log_bytes_per_request / 1024.0,
            r.db_bytes_per_request / 1024.0,
        ));
    }
    out.push_str("(paper: 19-30% CPU overhead, 5.52-8.87 KB/req log, 0.00-0.37 KB/req DB)\n");
    out
}

/// Table 5: repair performance for the Figure 4 attack.
pub fn render_table5(metrics: &[ServiceRepairMetrics]) -> String {
    let mut out = String::from("Table 5: Aire repair performance.\n");
    out.push_str(&format!("{:<26}", ""));
    for m in metrics {
        out.push_str(&format!("{:>18}", m.service));
    }
    out.push('\n');
    let row = |label: &str, f: &dyn Fn(&ServiceRepairMetrics) -> String| {
        let mut line = format!("{label:<26}");
        for m in metrics {
            line.push_str(&format!("{:>18}", f(m)));
        }
        line.push('\n');
        line
    };
    out.push_str(&row("Repaired requests", &|m| {
        format!("{} / {}", m.repaired_requests, m.total_requests)
    }));
    out.push_str(&row("Repaired model ops", &|m| {
        format!("{} / {}", m.repaired_model_ops, m.total_model_ops)
    }));
    out.push_str(&row("Repair messages sent", &|m| {
        m.repair_messages_sent.to_string()
    }));
    out.push_str(&row("Local repair time", &|m| {
        format!("{:.3} sec", m.local_repair_secs)
    }));
    out.push_str(&row("Normal exec. time", &|m| {
        format!("{:.3} sec", m.normal_exec_secs)
    }));
    out.push_str("(paper: askbot 105/2196 requests, oauth 2/9, dpaste 1/496; 1/1/0 messages)\n");
    out
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use aire_core::ControllerStats;

    use super::*;
    use crate::overhead::Workload;

    #[test]
    fn table1_lists_all_four_ops() {
        let t = render_table1();
        for op in ["replace ", "delete ", "create ", "replace_response "] {
            assert!(t.contains(op), "missing {op}");
        }
    }

    #[test]
    fn table3_has_ten_services() {
        let t = render_table3();
        assert_eq!(t.lines().filter(|l| l.contains("yes")).count(), 10);
    }

    #[test]
    fn table4_formats_numbers() {
        let r = OverheadResult {
            workload: Workload::Reading,
            bare_throughput: 21.58,
            aire_throughput: 17.58,
            log_bytes_per_request: 5652.0,
            raw_log_bytes_per_request: 9000.0,
            db_bytes_per_request: 0.0,
            requests: 100,
        };
        let t = render_table4(&[r]);
        assert!(t.contains("Reading"));
        assert!(t.contains("21.58"));
        assert!(t.contains("18.5%"), "{t}");
    }

    #[test]
    fn table5_renders_per_service_columns() {
        let mk = |name: &str, rep: u64, tot: u64| {
            let stats = ControllerStats {
                repaired_requests: rep,
                normal_requests: tot,
                repair_wall: Duration::from_millis(12),
                ..Default::default()
            };
            ServiceRepairMetrics::from_stats(name, &stats)
        };
        let t = render_table5(&[mk("askbot", 105, 2196), mk("oauth", 2, 9)]);
        assert!(t.contains("askbot"));
        assert!(t.contains("105 / 2196"));
        assert!(t.contains("2 / 9"));
    }
}
