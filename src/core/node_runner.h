// Multi-process deployment runner: one OS process per node.
//
// Under `transport = tcp` the deployment leaves the single address space
// and takes the paper's actual shape (§4: one Garfield process per
// machine, gRPC between them — here localhost TCP with net/wire framing):
//
//   train(config)                                 parent process
//     └─ detail::train_multiprocess(config)
//          1. binds one 127.0.0.1:0 listener per rank *before* forking —
//             ports are kernel-assigned, race-free, and every child's
//             connect() lands on an established backlog;
//          2. writes the config as formatted text to a fresh directory
//             under $TMPDIR, else /tmp, removed on every exit path (floats
//             round-trip bit-exactly — see fmt_float in controller.cpp);
//          3. fork+execs the `garfield_node` launcher once per rank, each
//             child inheriting exactly its own listening socket, and hands
//             `--result` to the reporting rank (detail::reporting_replica:
//             a pure function of the config, so no message elects it);
//          4. waits for every child, then reads the reporting rank's result
//             blob.
//
//   garfield_node --rank r ...                    child process, per rank
//     └─ run_node(config, options)
//          builds the FULL deterministic object graph (datasets and every
//          replica are pure functions of the config seed, so all processes
//          hold bitwise-identical copies) over a TcpTransport, but drives
//          only rank r's loop; requests addressed to other ranks leave the
//          process as framed stream exchanges. Two barriers bracket the
//          run: ready (no pull may race a sibling's handler registration —
//          a missing handler is a silent decline and would change quorum
//          membership) and done (keep serving step-tagged state until
//          every driving rank finished). The reporting rank then harvests
//          and writes the result blob the parent returns from train().
//
// Known scope limits: the alignment probe needs a shared address space and
// DeploymentConfig::validate() rejects it under tcp; NetStats / worker
// counters in the returned result are the reporting rank's process-local
// view.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/trainer.h"

namespace garfield::core {

/// Per-process identity handed to run_node() by the garfield_node launcher.
struct NodeOptions {
  /// This process's node id (== its cluster NodeId).
  std::size_t rank = 0;
  /// Total processes in the deployment (== config.total_nodes()).
  std::size_t nodes = 1;
  /// Inherited listening socket, already bound + listening on
  /// ports[rank]; the transport takes ownership.
  int listen_fd = -1;
  /// Every rank's listener port, indexed by rank.
  std::vector<std::uint16_t> ports;
  /// Where the reporting rank serializes its TrainResult ("" on other
  /// ranks).
  std::string result_path;
};

/// Child-process entry: run this rank of the deployment to completion.
/// Returns the process exit code (0 on success; failures also print to
/// stderr, which the parent surfaces in its exception).
[[nodiscard]] int run_node(const DeploymentConfig& config,
                           const NodeOptions& options);

namespace detail {

/// Parent orchestrator behind train() for transport=tcp. Throws
/// std::runtime_error when a child fails, hangs past the deadline, or the
/// run aborted (the abort reason travels back in the result blob).
[[nodiscard]] TrainResult train_multiprocess(const DeploymentConfig& config);

}  // namespace detail

}  // namespace garfield::core
