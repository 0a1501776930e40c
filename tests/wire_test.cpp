// Tests for the wire format (CRC-verified serialization) and model
// checkpointing, including corruption/truncation detection and trainer
// resume continuity.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "core/checkpoint.h"
#include "core/trainer.h"
#include "net/wire.h"
#include "tensor/rng.h"

namespace gn = garfield::net;
namespace gc = garfield::core;
namespace gt = garfield::tensor;

namespace {

/// Per-process, so the parallel and serial ctest runs never share a file.
std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() /
          ("garfield_wire_" + std::to_string(::getpid()) + "_" + name))
      .string();
}

}  // namespace

// ------------------------------------------------------------------ crc32

TEST(Crc32, KnownVectors) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  const char* s = "123456789";
  std::vector<std::uint8_t> bytes(s, s + 9);
  EXPECT_EQ(gn::crc32(bytes), 0xCBF43926U);
  EXPECT_EQ(gn::crc32({}), 0x00000000U);
}

TEST(Crc32, SensitiveToSingleBitFlip) {
  std::vector<std::uint8_t> a{1, 2, 3, 4};
  std::vector<std::uint8_t> b = a;
  b[2] ^= 0x01;
  EXPECT_NE(gn::crc32(a), gn::crc32(b));
}

// ------------------------------------------------------------------- wire

TEST(Wire, RoundTrip) {
  gt::FlatVector payload{1.5F, -2.25F, 0.0F, 3e7F};
  const auto blob = gn::encode(42, payload);
  EXPECT_EQ(blob.size(), gn::wire_size(payload.size()));
  const gn::WireMessage msg = gn::decode(blob);
  EXPECT_EQ(msg.iteration, 42u);
  EXPECT_EQ(msg.payload, payload);
}

TEST(Wire, EmptyPayloadRoundTrip) {
  const auto blob = gn::encode(0, gt::FlatVector{});
  const gn::WireMessage msg = gn::decode(blob);
  EXPECT_TRUE(msg.payload.empty());
}

TEST(Wire, DetectsPayloadCorruption) {
  gt::FlatVector payload(64, 1.0F);
  auto blob = gn::encode(7, payload);
  blob[40] ^= 0xFF;  // flip a payload byte
  EXPECT_THROW((void)gn::decode(blob), gn::WireError);
}

TEST(Wire, DetectsTruncation) {
  auto blob = gn::encode(7, gt::FlatVector(16, 2.0F));
  blob.resize(blob.size() - 4);
  EXPECT_THROW((void)gn::decode(blob), gn::WireError);
  blob.resize(10);  // shorter than the header
  EXPECT_THROW((void)gn::decode(blob), gn::WireError);
}

TEST(Wire, DetectsBadMagicAndVersion) {
  auto blob = gn::encode(1, gt::FlatVector{1.0F});
  auto bad_magic = blob;
  bad_magic[0] = 'X';
  EXPECT_THROW((void)gn::decode(bad_magic), gn::WireError);
  auto bad_version = blob;
  bad_version[4] = 99;
  EXPECT_THROW((void)gn::decode(bad_version), gn::WireError);
}

TEST(Wire, DetectsHeaderSizeLie) {
  auto blob = gn::encode(1, gt::FlatVector(8, 1.0F));
  blob[16] = 4;  // claim 4 elements, blob carries 8
  EXPECT_THROW((void)gn::decode(blob), gn::WireError);
}

// ------------------------------------------------------------- checkpoint

TEST(Checkpoint, SaveLoadRoundTrip) {
  const std::string path = temp_path("garfield_ckpt_roundtrip.bin");
  gt::Rng rng(1);
  gc::Checkpoint ckpt;
  ckpt.iteration = 123;
  ckpt.parameters.resize(1000);
  for (float& v : ckpt.parameters) v = rng.normal();
  gc::save_checkpoint(path, ckpt);
  const gc::Checkpoint loaded = gc::load_checkpoint(path);
  EXPECT_EQ(loaded.iteration, 123u);
  EXPECT_EQ(loaded.parameters, ckpt.parameters);
  std::filesystem::remove(path);
}

TEST(Checkpoint, LoadRejectsCorruptedFile) {
  const std::string path = temp_path("garfield_ckpt_corrupt.bin");
  gc::save_checkpoint(path, gc::Checkpoint{1, gt::FlatVector(64, 1.0F), {}});
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(64);
    char garbage = 0x5A;
    f.write(&garbage, 1);
  }
  EXPECT_THROW((void)gc::load_checkpoint(path), gn::WireError);
  std::filesystem::remove(path);
}

TEST(Checkpoint, LoadMissingFileThrows) {
  EXPECT_THROW((void)gc::load_checkpoint(temp_path("garfield_no_such.bin")),
               std::runtime_error);
}

TEST(Checkpoint, TrainerWritesAndResumes) {
  const std::string path = temp_path("garfield_ckpt_resume.bin");
  gc::DeploymentConfig cfg;
  cfg.deployment = gc::Deployment::kSsmw;
  cfg.model = "tiny_mlp";
  cfg.nw = 5;
  cfg.fw = 1;
  cfg.gradient_gar = "median";
  cfg.train_size = 1024;
  cfg.test_size = 256;
  cfg.batch_size = 16;
  cfg.optimizer.lr.gamma0 = 0.1F;
  cfg.iterations = 80;
  cfg.eval_every = 0;
  cfg.seed = 9;
  cfg.checkpoint_path = path;
  cfg.checkpoint_every = 40;
  const gc::TrainResult first = gc::train(cfg);
  ASSERT_TRUE(std::filesystem::exists(path));
  const gc::Checkpoint ckpt = gc::load_checkpoint(path);
  EXPECT_EQ(ckpt.iteration, 80u);

  // Resume: a short continuation run must not regress below the
  // checkpointed accuracy (it starts from the saved weights, not scratch).
  gc::DeploymentConfig resume = cfg;
  resume.checkpoint_path.clear();
  resume.checkpoint_every = 0;
  resume.resume_from = path;
  resume.iterations = 20;
  const gc::TrainResult second = gc::train(resume);
  EXPECT_GT(second.final_accuracy, first.final_accuracy - 0.15);
  EXPECT_GT(second.final_accuracy, 0.6);
  std::filesystem::remove(path);
}
