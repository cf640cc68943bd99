//! Substrate microbenchmarks: the DevOps machinery's own throughput
//! (content hashing, chunking, diffing, parsing, fabric simulation).
//! These are the "is the infrastructure fast enough to be convenient"
//! numbers — usability being, per §Discussion, the key to making
//! reproducibility work.

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use popper_sim::rng::Rng;
use popper_store::chunker::{chunk, ChunkerConfig};
use popper_store::ChunkStore;
use popper_vcs::sha256;

fn data(len: usize) -> Vec<u8> {
    let mut rng = Rng::new(42);
    (0..len).map(|_| (rng.next_u64() >> 56) as u8).collect()
}

fn bench_sha256(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrates/sha256");
    for size in [4 * 1024usize, 1 << 20] {
        let input = data(size);
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &input, |b, input| {
            b.iter(|| criterion::black_box(sha256::digest(input)));
        });
    }
    group.finish();
}

fn bench_chunker(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrates/cdc_chunker");
    let input = data(4 << 20);
    group.throughput(Throughput::Bytes(input.len() as u64));
    group.bench_function("chunk_4MiB", |b| {
        let cfg = ChunkerConfig::default();
        b.iter(|| criterion::black_box(chunk(&input, &cfg).len()));
    });
    group.bench_function("store_put_dedup_4MiB", |b| {
        b.iter(|| {
            let mut s = ChunkStore::new();
            let m1 = s.put(&input);
            let m2 = s.put(&input); // fully deduped second pass
            criterion::black_box((m1.chunks.len(), m2.chunks.len()))
        });
    });
    group.finish();
}

fn bench_diff(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrates/myers_diff");
    group.sample_size(20);
    let old: Vec<String> = (0..2000).map(|i| format!("line {i}")).collect();
    let mut new = old.clone();
    for i in (0..2000).step_by(50) {
        new[i] = format!("edited {i}");
    }
    group.bench_function("2000_lines_40_edits", |b| {
        let old_refs: Vec<&str> = old.iter().map(String::as_str).collect();
        let new_refs: Vec<&str> = new.iter().map(String::as_str).collect();
        b.iter(|| criterion::black_box(popper_vcs::diff::diff_lines(&old_refs, &new_refs).len()));
    });
    group.finish();
}

fn bench_parsers(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrates/parsers");
    // A realistic results.csv.
    let mut csv = String::from("workload,machine,nodes,time\n");
    for i in 0..2000 {
        csv.push_str(&format!("git,cloudlab,{},{}.5\n", i % 16 + 1, 100 + i));
    }
    group.throughput(Throughput::Bytes(csv.len() as u64));
    group.bench_function("table_from_csv_2000_rows", |b| {
        b.iter(|| criterion::black_box(popper_format::Table::from_csv(&csv).unwrap().len()));
    });
    let playbook = "- name: provision\n  hosts: gassyfs\n  tasks:\n    - name: install\n      package: {name: gassyfs, version: \"2.1\"}\n    - name: run\n      command: ./run.sh --nodes {{ nodes }}\n";
    group.bench_function("pml_playbook_parse", |b| {
        b.iter(|| criterion::black_box(popper_format::pml::parse(playbook).unwrap()));
    });
    let aver_src = "when workload=* and machine=* expect sublinear(nodes, time) and count(time) >= 3";
    group.bench_function("aver_parse", |b| {
        b.iter(|| criterion::black_box(popper_aver::parse(aver_src).unwrap().len()));
    });
    let table = popper_format::Table::from_csv(&csv).unwrap();
    let assertions = popper_aver::parse(aver_src).unwrap();
    group.bench_function("aver_check_2000_rows", |b| {
        b.iter(|| criterion::black_box(popper_aver::check_all(&assertions, &table).unwrap().passed));
    });
    group.finish();
}

fn bench_fabric(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrates/sim_fabric");
    group.bench_function("transfer_ops_16_nodes", |b| {
        b.iter(|| {
            let mut f = popper_sim::Fabric::new(16, 40.0, popper_sim::Nanos::from_micros(5), 1.0);
            let mut t = popper_sim::Nanos::ZERO;
            for i in 0..1000u64 {
                let src = (i % 16) as usize;
                let dst = ((i * 7 + 3) % 16) as usize;
                t = f.transfer(src, dst, 4096, t);
            }
            criterion::black_box(t)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sha256,
    bench_chunker,
    bench_diff,
    bench_parsers,
    bench_fabric
);

fn main() {
    benches();
    criterion::Criterion::default().configure_from_args().final_summary();
}
