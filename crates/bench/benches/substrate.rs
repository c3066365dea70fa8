//! Substrate micro-benchmarks: the versioned store, the repair log's
//! taint indexes, the Jv codec, and the LZSS compressor — the pieces
//! whose costs make up Table 4's overhead.

use aire_http::{HttpRequest, HttpResponse, Method, Url};
use aire_log::{ActionRecord, DbOp, RepairLog};
use aire_types::{compress, jv, Jv, LogicalTime, RequestId};
use aire_vdb::{FieldDef, FieldKind, Filter, RowKey, Schema, VersionedStore};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_substrate(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate");

    group.bench_function("vdb_insert", |b| {
        let mut store = VersionedStore::new();
        store
            .create_table(Schema::new("t", vec![FieldDef::new("v", FieldKind::Int)]))
            .unwrap();
        let mut n = 0u64;
        b.iter(|| {
            n += 1;
            store
                .insert_new("t", jv!({"v": n as i64}), LogicalTime::tick(n))
                .unwrap()
        })
    });

    group.bench_function("vdb_historical_read", |b| {
        let mut store = VersionedStore::new();
        store
            .create_table(Schema::new("t", vec![FieldDef::new("v", FieldKind::Int)]))
            .unwrap();
        let (id, _) = store
            .insert_new("t", jv!({"v": 0}), LogicalTime::tick(1))
            .unwrap();
        for n in 2..200u64 {
            store
                .update("t", id, jv!({"v": n as i64}), LogicalTime::tick(n))
                .unwrap();
        }
        b.iter(|| store.get("t", id, LogicalTime::tick(100)).unwrap().cloned())
    });

    group.bench_function("log_row_taint_query", |b| {
        let mut log = RepairLog::new();
        for n in 1..1000u64 {
            let mut a = ActionRecord::new(
                RequestId::new("s", n),
                LogicalTime::tick(n),
                HttpRequest::new(Method::Get, Url::service("s", "/x")),
                HttpResponse::ok(Jv::Null),
            );
            a.db_ops.push(DbOp::Read {
                key: RowKey::new("t", n % 50),
                at: None,
            });
            log.record(a);
        }
        b.iter(|| log.dependents(&RowKey::new("t", 7), LogicalTime::tick(500), &[]))
    });

    group.bench_function("jv_encode_decode", |b| {
        let v = jv!({
            "questions": [
                {"id": 1, "title": "How do I frobnicate?", "score": 4},
                {"id": 2, "title": "Why is my frob nicated?", "score": -1},
            ],
            "page": 1,
        });
        b.iter(|| {
            let text = v.encode();
            Jv::decode(&text).unwrap()
        })
    });

    group.bench_function("lzss_compress_4k", |b| {
        let data: Vec<u8> = (0..4096u32)
            .map(|i| b"GET /questions/42 HTTP/1.1 "[i as usize % 27])
            .collect();
        b.iter(|| compress::compress(&data))
    });

    group.bench_function("scan_1000_rows_filtered", |b| {
        let mut store = VersionedStore::new();
        store
            .create_table(Schema::new(
                "q",
                vec![
                    FieldDef::new("kind", FieldKind::Str),
                    FieldDef::new("n", FieldKind::Int),
                ],
            ))
            .unwrap();
        for n in 1..1000u64 {
            store
                .insert_new(
                    "q",
                    jv!({"kind": if n % 3 == 0 { "a" } else { "b" }, "n": n as i64}),
                    LogicalTime::tick(n),
                )
                .unwrap();
        }
        let filter = Filter::all().eq("kind", "a").gt("n", 500);
        b.iter(|| store.scan("q", &filter, LogicalTime::MAX).unwrap().len())
    });

    group.finish();
}

criterion_group!(benches, bench_substrate);
criterion_main!(benches);
