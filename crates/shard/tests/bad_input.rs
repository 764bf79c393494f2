//! A malformed stream request fails with a typed error at both surfaces
//! — `Runtime::run` and `ShardServer::run` — and never takes a shard
//! worker down: the same shard serves the next valid request.

use runtime::kernels;
use runtime::{Runtime, RuntimeConfig, RuntimeError, StreamRequest, TenantId};
use shard::{ShardConfig, ShardServer};
use softfloat::{FpFormat, FpValue};
use vcgra::sim::run_dataflow;

const F: FpFormat = FpFormat::PAPER;

/// The two malformed requests for a tenant whose graph takes `n` inputs,
/// each paired with the error it must return.
fn malformed(tenant: TenantId, n: usize) -> Vec<(StreamRequest, RuntimeError)> {
    let other = FpFormat::new(4, 6);
    vec![
        (
            StreamRequest { tenant, inputs: vec![vec![FpValue::from_f64(1.0, F); n + 1]] },
            RuntimeError::BadInputArity { expected: n, got: n + 1 },
        ),
        (
            StreamRequest { tenant, inputs: vec![vec![FpValue::from_f64(1.0, other); n]] },
            RuntimeError::BadInputFormat { expected: F, got: other },
        ),
    ]
}

#[test]
fn malformed_requests_return_typed_errors_and_the_shard_keeps_serving() {
    let fir = kernels::fir_seeded(F, 5, 3);
    let n = fir.graph.num_inputs;
    let good: Vec<Vec<FpValue>> =
        (0..4).map(|i| vec![FpValue::from_f64(i as f64 * 0.5 - 1.0, F); n]).collect();
    let want: Vec<Vec<u64>> = good
        .iter()
        .map(|x| run_dataflow(&fir.graph, x).iter().map(|v| v.bits).collect())
        .collect();
    let bits = |outputs: &[Vec<FpValue>]| -> Vec<Vec<u64>> {
        outputs.iter().map(|o| o.iter().map(|v| v.bits).collect()).collect()
    };

    let mut rt = Runtime::new(RuntimeConfig::default());
    let tenant = rt.submit("fir", fir.graph.clone()).expect("submit").tenant();
    for (request, err) in malformed(tenant, n) {
        assert_eq!(rt.run(vec![request]).expect_err("malformed request"), err);
    }
    let runs = rt.run(vec![StreamRequest { tenant, inputs: good.clone() }]).expect("valid run");
    assert_eq!(bits(&runs[0].outputs), want);

    let mut server = ShardServer::start(ShardConfig::new(1));
    let (at, _, ticket) = server.submit("fir", fir.graph.clone()).expect("dispatch");
    ticket.wait().expect("admit");
    for (request, err) in malformed(at.tenant, n) {
        let reply = server.run(at.shard, vec![request]).expect("dispatch").wait();
        assert_eq!(reply.expect_err("malformed request"), err);
    }
    let runs = server
        .run(at.shard, vec![StreamRequest { tenant: at.tenant, inputs: good }])
        .expect("dispatch")
        .wait()
        .expect("the shard still serves a valid request");
    assert_eq!(bits(&runs[0].outputs), want);
    server.shutdown();
}
