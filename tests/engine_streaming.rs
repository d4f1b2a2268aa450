//! Integration tests of the layered streaming engine: tick-level ingestion
//! must reproduce batch results, state must stay isolated across contexts
//! and threads, and the detector family must be selectable via config.

use invarnet_x::core::{
    CusumDetector, DetectorChoice, Engine, InvarNetConfig, OperationContext, Telemetry,
};
use invarnet_x::metrics::{MetricFrame, METRIC_COUNT};
use invarnet_x::timeseries::SeriesBuilder;

/// A frame whose metrics are all driven by one latent ramp (strongly
/// associated), with metric 0 optionally replaced by noise.
fn coupled_frame(ticks: usize, seed: u64, break_metric0: bool) -> MetricFrame {
    let mut f = MetricFrame::new();
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    for t in 0..ticks {
        let latent = (t as f64 * 0.23).sin() * 5.0 + 10.0 + 0.2 * next();
        let mut row: Vec<f64> = (0..METRIC_COUNT)
            .map(|k| latent * (k + 1) as f64 + 0.1 * next())
            .collect();
        if break_metric0 {
            row[0] = 100.0 * next();
        }
        f.push_tick(&row).unwrap();
    }
    f
}

fn normal_cpi(seed: u64, len: usize) -> Vec<f64> {
    SeriesBuilder::new(len)
        .level(1.0)
        .ar1(0.6)
        .noise(0.02)
        .build(seed)
        .unwrap()
        .into_values()
}

fn streaming_config() -> InvarNetConfig {
    InvarNetConfig {
        min_frame_ticks: 5,
        window_ticks: 40,
        ..InvarNetConfig::default()
    }
}

/// Offline-trains one context on the engine: ARIMA model, invariants, and
/// one recorded fault signature.
fn train_context(engine: &Engine, ctx: &OperationContext, cpi_traces: &[Vec<f64>], seed: u64) {
    engine
        .train_performance_model(ctx.clone(), cpi_traces)
        .unwrap();
    let frames: Vec<MetricFrame> = (0..2).map(|s| coupled_frame(40, seed + s, false)).collect();
    engine.build_invariants(ctx.clone(), &frames).unwrap();
    engine
        .record_signature(ctx, "metric0-break", &coupled_frame(40, seed + 9, true))
        .unwrap();
}

#[test]
fn streamed_ticks_reproduce_batch_detection_and_diagnosis() {
    let telemetry = Telemetry::shared();
    let engine = Engine::builder()
        .config(streaming_config())
        .telemetry(&telemetry)
        .build();

    let ctx = OperationContext::new("10.0.0.1", "Wordcount");
    let cpi_traces: Vec<Vec<f64>> = (0..3).map(|s| normal_cpi(s, 120)).collect();
    train_context(&engine, &ctx, &cpi_traces, 100);

    // An anomalous online run: CPI jumps at tick 60 and stays high (a
    // single anomaly onset), metrics break with it.
    let mut cpi = normal_cpi(42, 120);
    for v in cpi[60..].iter_mut() {
        *v *= 1.8;
    }
    let metrics = coupled_frame(120, 7, true);

    let mut onset: Option<usize> = None;
    let mut streamed_diagnosis = None;
    for (t, &sample) in cpi.iter().enumerate() {
        let out = engine.ingest(&ctx, sample, metrics.tick(t)).unwrap();
        assert_eq!(out.tick, t);
        if let Some(d) = out.diagnosis {
            assert!(
                onset.is_none(),
                "diagnosis must be edge-triggered, not per-tick"
            );
            onset = Some(t);
            streamed_diagnosis = Some(d);
        }
    }

    // Detection parity: the accumulated run equals the batch detector
    // (bit-exact, so PartialEq over the f64 residuals holds).
    let streamed = engine.detection_result(&ctx).unwrap();
    let model = engine.performance_model(&ctx).unwrap();
    let batch = model.detect(
        &cpi,
        engine.config().threshold_rule,
        engine.config().consecutive_anomalies,
    );
    assert_eq!(streamed, batch);

    // Diagnosis parity: the onset-tick diagnosis equals a batch diagnosis
    // over the same sliding window contents.
    let t = onset.expect("the injected jump must trigger a diagnosis");
    assert_eq!(Some(t), batch.first_anomaly);
    let window_ticks = engine.config().window_ticks;
    let start = (t + 1).saturating_sub(window_ticks);
    let window = metrics.window(start..t + 1);
    let batch_diagnosis = engine.diagnose(&ctx, &window).unwrap();
    let streamed_diagnosis = streamed_diagnosis.unwrap();
    assert_eq!(streamed_diagnosis, batch_diagnosis);
    assert_eq!(
        streamed_diagnosis.root_cause().unwrap().problem,
        "metric0-break"
    );

    // Observability: every layer reported through the sink.
    let total = telemetry.snapshot().total;
    assert_eq!(total.ticks, cpi.len() as u64);
    assert_eq!(total.detections, 1);
    assert_eq!(total.diagnoses, 2); // streaming onset + batch replay
    assert!(total.sweeps >= 2);
    assert!(total.sweep_micros.sum >= total.sweep_micros.max);
}

#[test]
fn concurrent_ingestion_matches_single_threaded_and_isolates_contexts() {
    let trace_len = 100;
    let contexts: Vec<OperationContext> = (0..8)
        .map(|i| OperationContext::new(format!("10.0.0.{i}"), "Wordcount"))
        .collect();
    let cpi_traces: Vec<Vec<f64>> = (0..3).map(|s| normal_cpi(s, trace_len)).collect();

    let setup = || {
        let engine = Engine::new(streaming_config());
        for (i, ctx) in contexts.iter().enumerate() {
            train_context(&engine, ctx, &cpi_traces, 200 + 10 * i as u64);
        }
        engine
    };

    // Per-context online streams: even contexts stay normal, odd contexts
    // get a CPI jump (and broken metrics) so diagnosis paths run under
    // contention too.
    let streams: Vec<(Vec<f64>, MetricFrame)> = contexts
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let mut cpi = normal_cpi(400 + i as u64, trace_len);
            let broken = i % 2 == 1;
            if broken {
                for v in cpi[60..90].iter_mut() {
                    *v *= 1.8;
                }
            }
            (cpi, coupled_frame(trace_len, 500 + i as u64, broken))
        })
        .collect();

    // Reference: one engine, everything ingested from this thread.
    let single = setup();
    for (ctx, (cpi, metrics)) in contexts.iter().zip(&streams) {
        for (t, &sample) in cpi.iter().enumerate() {
            single.ingest(ctx, sample, metrics.tick(t)).unwrap();
        }
    }

    // Concurrent: same work spread over 4 threads, 2 contexts each.
    let concurrent = setup();
    std::thread::scope(|scope| {
        for chunk in contexts.chunks(2) {
            let concurrent = &concurrent;
            let streams = &streams;
            let contexts = &contexts;
            scope.spawn(move || {
                for ctx in chunk {
                    let i = contexts.iter().position(|c| c == ctx).unwrap();
                    let (cpi, metrics) = &streams[i];
                    for (t, &sample) in cpi.iter().enumerate() {
                        concurrent.ingest(ctx, sample, metrics.tick(t)).unwrap();
                    }
                }
            });
        }
    });

    // Shard isolation: every context's detector run and window end up
    // identical to the single-threaded reference, which itself equals the
    // batch detector on that context's own trace.
    for (i, ctx) in contexts.iter().enumerate() {
        let got = concurrent.detection_result(ctx).unwrap();
        let reference = single.detection_result(ctx).unwrap();
        assert_eq!(got, reference, "context {i} detector state diverged");
        let model = concurrent.performance_model(ctx).unwrap();
        let batch = model.detect(&streams[i].0, concurrent.config().threshold_rule, 3);
        assert_eq!(got, batch, "context {i} differs from batch detection");
        assert!(
            batch.is_anomalous() == (i % 2 == 1),
            "context {i} anomaly parity"
        );
        assert_eq!(
            concurrent.window_frame(ctx).unwrap(),
            single.window_frame(ctx).unwrap(),
            "context {i} window diverged"
        );
    }
    assert_eq!(concurrent.contexts().len(), contexts.len());
}

#[test]
fn cusum_detector_is_selectable_through_config() {
    let config = InvarNetConfig {
        detector: DetectorChoice::cusum_default(),
        min_frame_ticks: 5,
        window_ticks: 40,
        ..InvarNetConfig::default()
    };
    let engine = Engine::new(config);
    let ctx = OperationContext::new("10.0.0.1", "Wordcount");
    // Flat CPI traces so CUSUM's in-control calibration is meaningful.
    let traces: Vec<Vec<f64>> = (0..4)
        .map(|s| {
            SeriesBuilder::new(150)
                .level(1.3)
                .noise(0.03)
                .build(s)
                .unwrap()
                .into_values()
        })
        .collect();
    engine
        .train_performance_model(ctx.clone(), &traces)
        .unwrap();
    let frames: Vec<MetricFrame> = (0..2).map(|s| coupled_frame(40, s, false)).collect();
    engine.build_invariants(ctx.clone(), &frames).unwrap();
    engine
        .record_signature(&ctx, "hog", &coupled_frame(40, 9, true))
        .unwrap();

    assert_eq!(engine.detector(&ctx).unwrap().name(), "CUSUM");

    // A sustained 2-sigma shift: the streamed CUSUM must alarm and match
    // the batch CUSUM tick for tick.
    let mut cpi = SeriesBuilder::new(120)
        .level(1.3)
        .noise(0.03)
        .build(77)
        .unwrap()
        .into_values();
    for v in cpi[60..].iter_mut() {
        *v += 0.08;
    }
    let metrics = coupled_frame(120, 11, true);
    let mut diagnosed = false;
    for (t, &sample) in cpi.iter().enumerate() {
        let out = engine.ingest(&ctx, sample, metrics.tick(t)).unwrap();
        diagnosed |= out.diagnosis.is_some();
    }
    let streamed = engine.detection_result(&ctx).unwrap();
    assert!(streamed.is_anomalous(), "shift must alarm under CUSUM");
    assert!(diagnosed, "the alarm onset must trigger a diagnosis");

    let batch_cusum =
        CusumDetector::train(&traces, CusumDetector::DEFAULT_K, CusumDetector::DEFAULT_H)
            .unwrap()
            .detect(&cpi);
    assert_eq!(streamed.anomalies, batch_cusum.alarms);
    assert_eq!(streamed.first_anomaly, batch_cusum.first_alarm);
    // The batch path of Engine::detect streams through the same detector.
    assert_eq!(engine.detect(&ctx, &cpi).unwrap(), streamed);
}

#[test]
fn ingest_errors_are_precise_and_non_destructive() {
    let engine = Engine::new(streaming_config());
    let ctx = OperationContext::new("10.0.0.1", "Wordcount");

    // No model yet: ingest refuses.
    assert!(engine.ingest(&ctx, 1.0, &[1.0; METRIC_COUNT]).is_err());

    let cpi_traces: Vec<Vec<f64>> = (0..3).map(|s| normal_cpi(s, 120)).collect();
    engine
        .train_performance_model(ctx.clone(), &cpi_traces)
        .unwrap();

    // Wrong-width row: rejected without advancing the run.
    assert!(engine.ingest(&ctx, 1.0, &[1.0; 3]).is_err());
    engine.ingest(&ctx, 1.0, &[1.0; METRIC_COUNT]).unwrap();
    let r = engine.detection_result(&ctx).unwrap();
    assert_eq!(r.residuals.len(), 1, "rejected row must not consume a tick");

    // Reset starts a fresh run.
    engine.reset_run(&ctx);
    assert!(engine.detection_result(&ctx).is_none());
    let out = engine.ingest(&ctx, 1.0, &[1.0; METRIC_COUNT]).unwrap();
    assert_eq!(out.tick, 0);
}
