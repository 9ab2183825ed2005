// Post-campaign layer probes of a traced run. Each times calls into one
// layer's public functions: BayesianFaultNetwork::evaluate and replicate,
// Network::forward_view and Layer::forward, and tensor::gemm.
#pragma once

#include <string>
#include <vector>

#include "bayes/fault_network.h"
#include "campaign.h"
#include "mcmc/runner.h"
#include "verify.h"

namespace bdlfi::campaign_bench {

/// Replays the retained masks `recorded` holds (recorded with
/// MhConfig::record_masks) through golden.evaluate(EvalRequest{masks, 8}),
/// eight masks per call. Each replayed outcome is checked against the
/// reference path and against the sample the campaign recorded for it.
MetricSet probe_bayes(bayes::BayesianFaultNetwork& golden,
                      const mcmc::CampaignResult& recorded,
                      bayes::BayesianFaultNetwork& reference,
                      OpLedger& ledger);

/// replicate() latency of the golden network.
MetricSet probe_replicate(const bayes::BayesianFaultNetwork& golden);

/// Eval forward of `net` on `inputs`: whole-network latency, computed
/// GFLOP/s, and Layer::forward time of each top-level layer. `table`
/// receives a per-layer text table.
MetricSet probe_nn(nn::Network& net, const tensor::Tensor& inputs,
                   double gemm_peak_gflops, std::string* table);

/// Best GFLOP/s of a 256x256x256 tensor::gemm.
double probe_gemm_peak_gflops();

}  // namespace bdlfi::campaign_bench
