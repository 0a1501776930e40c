#include "core/controller.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace garfield::core {

namespace {

std::size_t to_size(const std::string& key, const std::string& value) {
  try {
    return std::stoull(value);
  } catch (const std::exception&) {
    throw std::invalid_argument("config: bad integer for '" + key + "': " +
                                value);
  }
}

float to_float(const std::string& key, const std::string& value) {
  try {
    return std::stof(value);
  } catch (const std::exception&) {
    throw std::invalid_argument("config: bad float for '" + key + "': " +
                                value);
  }
}

bool to_bool(const std::string& key, const std::string& value) {
  if (value == "true" || value == "1" || value == "yes") return true;
  if (value == "false" || value == "0" || value == "no") return false;
  throw std::invalid_argument("config: bad bool for '" + key + "': " + value);
}

void apply(DeploymentConfig& cfg, const std::string& key,
           const std::string& value) {
  if (key == "deployment") cfg.deployment = deployment_from_string(value);
  else if (key == "model") cfg.model = value;
  else if (key == "dataset") cfg.dataset = value;
  else if (key == "dataset_noise") cfg.dataset_noise = to_float(key, value);
  else if (key == "train_size") cfg.train_size = to_size(key, value);
  else if (key == "test_size") cfg.test_size = to_size(key, value);
  else if (key == "batch_size") cfg.batch_size = to_size(key, value);
  else if (key == "lr") cfg.optimizer.lr.gamma0 = to_float(key, value);
  else if (key == "lr_decay_steps")
    cfg.optimizer.lr.decay_steps = to_float(key, value);
  else if (key == "momentum") cfg.optimizer.momentum = to_float(key, value);
  else if (key == "worker_momentum")
    cfg.worker_momentum = to_float(key, value);
  else if (key == "weight_decay")
    cfg.optimizer.weight_decay = to_float(key, value);
  else if (key == "nw") cfg.nw = to_size(key, value);
  else if (key == "fw") cfg.fw = to_size(key, value);
  else if (key == "nps") cfg.nps = to_size(key, value);
  else if (key == "fps") cfg.fps = to_size(key, value);
  else if (key == "gradient_gar") cfg.gradient_gar = value;
  else if (key == "model_gar") cfg.model_gar = value;
  else if (key == "asynchronous") cfg.asynchronous = to_bool(key, value);
  else if (key == "worker_attack") cfg.worker_attack = value;
  else if (key == "server_attack") cfg.server_attack = value;
  else if (key == "non_iid") cfg.non_iid = to_bool(key, value);
  else if (key == "contraction_steps")
    cfg.contraction_steps = to_size(key, value);
  else if (key == "iterations") cfg.iterations = to_size(key, value);
  else if (key == "eval_every") cfg.eval_every = to_size(key, value);
  else if (key == "alignment_every")
    cfg.alignment_every = to_size(key, value);
  else if (key == "seed") cfg.seed = to_size(key, value);
  else if (key == "checkpoint_path") cfg.checkpoint_path = value;
  else if (key == "checkpoint_every")
    cfg.checkpoint_every = to_size(key, value);
  else if (key == "resume_from") cfg.resume_from = value;
  else if (key == "network") cfg.network = value;
  else if (key == "pool_threads") cfg.pool_threads = to_size(key, value);
  else if (key == "transport") cfg.transport = value;
  else if (key == "codec") cfg.codec = value;
  else
    throw std::invalid_argument("config: unknown key '" + key + "'");
}

/// Emit a float so that parsing the text recovers the exact bits. The
/// default 6-significant-digit print is kept when it round-trips (it almost
/// always does for human-entered values); otherwise fall back to hexfloat,
/// which strtof/stof parse exactly. This matters beyond aesthetics: the
/// multi-process launcher ships the config to every node as formatted text,
/// and a float that re-parses one ulp off would silently break the
/// bitwise-parity guarantee between the transport backends.
std::string fmt_float(float v) {
  std::ostringstream out;
  out << v;
  try {
    if (std::stof(out.str()) == v) return out.str();
  } catch (const std::exception&) {
  }
  std::ostringstream hex;
  hex << std::hexfloat << v;
  return hex.str();
}

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

}  // namespace

DeploymentConfig parse_config(const std::string& text) {
  DeploymentConfig cfg;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    // Allow several assignments per line; tokenize on whitespace around '='.
    std::istringstream tokens(line);
    std::string token;
    std::string pending_key;
    while (tokens >> token) {
      if (!pending_key.empty()) {
        if (token == "=") continue;
        if (token.front() == '=') token = token.substr(1);  // "key =value"
        apply(cfg, pending_key, token);
        pending_key.clear();
        continue;
      }
      const auto eq = token.find('=');
      if (eq == std::string::npos) {
        pending_key = token;
      } else if (eq + 1 == token.size()) {
        pending_key = trim(token.substr(0, eq));
      } else {
        apply(cfg, trim(token.substr(0, eq)), trim(token.substr(eq + 1)));
      }
    }
    if (!pending_key.empty()) {
      throw std::invalid_argument("config: dangling key '" + pending_key +
                                  "'");
    }
  }
  return cfg;
}

DeploymentConfig load_config_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("config: cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_config(buffer.str());
}

std::string format_config(const DeploymentConfig& cfg) {
  std::ostringstream out;
  out << "deployment = " << to_string(cfg.deployment) << '\n'
      << "model = " << cfg.model << '\n'
      << "dataset = " << cfg.dataset << '\n'
      << "dataset_noise = " << fmt_float(cfg.dataset_noise) << '\n'
      << "train_size = " << cfg.train_size << '\n'
      << "test_size = " << cfg.test_size << '\n'
      << "batch_size = " << cfg.batch_size << '\n'
      << "lr = " << fmt_float(cfg.optimizer.lr.gamma0) << '\n'
      << "lr_decay_steps = " << fmt_float(cfg.optimizer.lr.decay_steps)
      << '\n'
      << "momentum = " << fmt_float(cfg.optimizer.momentum) << '\n'
      << "worker_momentum = " << fmt_float(cfg.worker_momentum) << '\n'
      << "weight_decay = " << fmt_float(cfg.optimizer.weight_decay) << '\n'
      << "nw = " << cfg.nw << '\n'
      << "fw = " << cfg.fw << '\n'
      << "nps = " << cfg.nps << '\n'
      << "fps = " << cfg.fps << '\n'
      << "gradient_gar = " << cfg.gradient_gar << '\n'
      << "model_gar = " << cfg.model_gar << '\n'
      << "asynchronous = " << (cfg.asynchronous ? "true" : "false") << '\n';
  if (!cfg.worker_attack.empty())
    out << "worker_attack = " << cfg.worker_attack << '\n';
  if (!cfg.server_attack.empty())
    out << "server_attack = " << cfg.server_attack << '\n';
  if (!cfg.checkpoint_path.empty())
    out << "checkpoint_path = " << cfg.checkpoint_path << '\n'
        << "checkpoint_every = " << cfg.checkpoint_every << '\n';
  if (!cfg.resume_from.empty())
    out << "resume_from = " << cfg.resume_from << '\n';
  out << "non_iid = " << (cfg.non_iid ? "true" : "false") << '\n'
      << "contraction_steps = " << cfg.contraction_steps << '\n'
      << "iterations = " << cfg.iterations << '\n'
      << "eval_every = " << cfg.eval_every << '\n'
      << "alignment_every = " << cfg.alignment_every << '\n'
      << "seed = " << cfg.seed << '\n';
  if (!cfg.network.empty()) {
    out << "network = " << cfg.network << '\n';
  } else {
    // Advertise the knob in emitted templates; an empty value would not
    // re-parse, so document it as a comment instead.
    out << "# network = wan:latency=100us,jitter=50us"
           "   (net/conditions.h spec; \"\" = ideal;\n"
           "#           churn:crash=3,at_iter=100,recover_after=50 "
           "schedules elastic membership)\n";
  }
  out << "pool_threads = " << cfg.pool_threads << '\n'
      << "transport = " << cfg.transport << '\n'
      << "codec = " << cfg.codec << '\n';
  return out.str();
}

TrainResult run_experiment(const std::string& config_text) {
  DeploymentConfig cfg = parse_config(config_text);
  cfg.validate();
  return train(cfg);
}

}  // namespace garfield::core
