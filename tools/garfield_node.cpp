// garfield_node: one rank of a transport=tcp deployment.
//
// Spawned by the parent orchestrator (core/node_runner.h), never by hand —
// the listening socket named by --listen-fd must already be bound and
// listening when this process starts, which only the pre-fork parent can
// guarantee. Usage:
//
//   garfield_node --rank R --nodes N --listen-fd FD
//                 --ports p0,p1,...,pN-1 --config FILE [--result FILE]
//
// Loads the deployment config, builds this rank's runtime over a
// TcpTransport and runs its round loop to completion; the reporting rank
// (the one handed --result) writes the result blob the parent returns
// from train().
#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/controller.h"
#include "core/node_runner.h"

namespace {

std::vector<std::uint16_t> parse_ports(const std::string& list) {
  std::vector<std::uint16_t> ports;
  std::size_t at = 0;
  while (at <= list.size()) {
    const std::size_t comma = list.find(',', at);
    const std::string tok =
        list.substr(at, comma == std::string::npos ? comma : comma - at);
    const unsigned long value = std::stoul(tok);
    if (value == 0 || value > 0xFFFF) {
      throw std::invalid_argument("port out of range: " + tok);
    }
    ports.push_back(std::uint16_t(value));
    if (comma == std::string::npos) break;
    at = comma + 1;
  }
  return ports;
}

}  // namespace

int main(int argc, char** argv) {
  using garfield::core::NodeOptions;
  try {
    NodeOptions options;
    std::string config_path;
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--rank") {
        options.rank = std::stoull(value);
      } else if (key == "--nodes") {
        options.nodes = std::stoull(value);
      } else if (key == "--listen-fd") {
        options.listen_fd = std::stoi(value);
      } else if (key == "--ports") {
        options.ports = parse_ports(value);
      } else if (key == "--config") {
        config_path = value;
      } else if (key == "--result") {
        options.result_path = value;
      } else {
        throw std::invalid_argument("unknown flag '" + key + "'");
      }
    }
    if (config_path.empty()) {
      throw std::invalid_argument("--config is required");
    }
    const garfield::core::DeploymentConfig config =
        garfield::core::load_config_file(config_path);
    return garfield::core::run_node(config, options);
  } catch (const std::exception& e) {
    std::cerr << "garfield_node: " << e.what() << '\n';
    return 2;
  }
}
