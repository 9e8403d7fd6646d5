//! Per-client attribution of server-side decode spans in a merged
//! federation trace: each `net_decode` must graft under the
//! `client_round` leg of the client whose upload it decoded, never
//! under a sibling client's leg.

use rhychee_telemetry::fedmerge::{self, FedSource};
use rhychee_telemetry::profile::SpanRecord;

fn rec(name: &str, path: &str, dur: u64, id: u64, rp: u64) -> SpanRecord {
    SpanRecord {
        name: name.into(),
        path: path.into(),
        depth: 0,
        dur_ns: dur,
        span_id: id,
        remote_parent: rp,
        ..SpanRecord::default()
    }
}

#[test]
fn multi_client_decode_attribution() {
    let server = FedSource::new(
        "server",
        vec![
            rec("net_round", "net_round", 1000, 10, 0),
            rec("net_decode", "net_decode", 30, 13, 20), // decode of client0's upload
            rec("net_decode", "net_decode", 40, 14, 30), // decode of client1's upload
        ],
    );
    let c0 = FedSource::new("client0", vec![rec("client_round", "client_round", 700, 20, 10)]);
    let c1 = FedSource::new("client1", vec![rec("client_round", "client_round", 650, 30, 10)]);
    let tree = fedmerge::merge(&[server, c0, c1]);

    for (client, total_ns) in [("client0", 30), ("client1", 40)] {
        let path = format!("server/net_round/{client}/client_round/server/net_decode");
        let decode = tree.get(&path).unwrap_or_else(|| panic!("no decode node at {path}"));
        assert_eq!(decode.count, 1, "{client}: exactly its own upload's decode");
        assert_eq!(decode.total_ns, total_ns, "{client}: decode total");
    }
    // Both decodes are attributed: no server-side decode is left over
    // at the top level or under the round span directly.
    assert!(tree.get("server/net_decode").is_none());
    assert!(tree.get("server/net_round/net_decode").is_none());
}
