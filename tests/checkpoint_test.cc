#include "persist/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "imcs/column_vector.h"
#include "persist/imcs_snapshot.h"
#include "persist/persist_io.h"
#include "storage/value.h"

namespace stratus {
namespace persist {
namespace {

CheckpointImage MakeCheckpoint() {
  CheckpointImage img;
  img.seq = 4;
  img.recovery_scn = 100;
  img.end_scn = 140;

  TableImage table;
  table.object_id = 9;
  table.tenant = 2;
  table.name = "orders";
  table.columns = {{"id", ValueType::kInt}, {"note", ValueType::kString}};
  table.im_service = 1;
  table.identity_index = true;
  table.blocks = {11, 12, 13};
  img.tables.push_back(std::move(table));

  BlockImage block;
  block.dba = 11;
  block.object_id = 9;
  block.tenant = 2;
  block.frontier = 120;
  SlotChainImage chain;
  RowVersionImage v0;
  v0.xid = 5;
  v0.data = Row{Value(int64_t{1}), Value(std::string("hello"))};
  chain.push_back(std::move(v0));
  RowVersionImage v1;
  v1.xid = 6;
  v1.deleted = true;
  chain.push_back(std::move(v1));
  block.chains.push_back(std::move(chain));
  block.chains.push_back({});  // Never-used slot.
  img.blocks.push_back(std::move(block));

  img.txns.emplace_back(5, TxnStatusInfo{TxnState::kCommitted, 118});
  img.txns.emplace_back(6, TxnStatusInfo{TxnState::kAborted, kInvalidScn});
  return img;
}

TEST(CheckpointTest, EncodeDecodeRoundtrip) {
  const CheckpointImage img = MakeCheckpoint();
  std::string encoded;
  EncodeCheckpoint(img, &encoded);

  CheckpointImage out;
  ASSERT_TRUE(DecodeCheckpoint(encoded, &out).ok());
  EXPECT_EQ(out.seq, img.seq);
  EXPECT_EQ(out.recovery_scn, img.recovery_scn);
  EXPECT_EQ(out.end_scn, img.end_scn);

  ASSERT_EQ(out.tables.size(), 1u);
  EXPECT_EQ(out.tables[0].object_id, 9u);
  EXPECT_EQ(out.tables[0].name, "orders");
  ASSERT_EQ(out.tables[0].columns.size(), 2u);
  EXPECT_EQ(out.tables[0].columns[1].type, ValueType::kString);
  EXPECT_TRUE(out.tables[0].identity_index);
  EXPECT_EQ(out.tables[0].blocks, (std::vector<Dba>{11, 12, 13}));

  ASSERT_EQ(out.blocks.size(), 1u);
  EXPECT_EQ(out.blocks[0].frontier, 120u);
  ASSERT_EQ(out.blocks[0].chains.size(), 2u);
  ASSERT_EQ(out.blocks[0].chains[0].size(), 2u);
  EXPECT_EQ(out.blocks[0].chains[0][0].xid, 5u);
  EXPECT_FALSE(out.blocks[0].chains[0][0].deleted);
  ASSERT_EQ(out.blocks[0].chains[0][0].data.size(), 2u);
  EXPECT_EQ(out.blocks[0].chains[0][0].data[1].as_string(), "hello");
  EXPECT_TRUE(out.blocks[0].chains[0][1].deleted);
  EXPECT_TRUE(out.blocks[0].chains[1].empty());

  ASSERT_EQ(out.txns.size(), 2u);
  EXPECT_EQ(out.txns[0].first, 5u);
  EXPECT_EQ(out.txns[0].second.state, TxnState::kCommitted);
  EXPECT_EQ(out.txns[0].second.commit_scn, 118u);
  EXPECT_EQ(out.txns[1].second.state, TxnState::kAborted);
}

TEST(CheckpointTest, DecodeRejectsDamage) {
  std::string encoded;
  EncodeCheckpoint(MakeCheckpoint(), &encoded);
  std::string damaged = encoded;
  damaged[damaged.size() / 2] ^= 0x10;
  CheckpointImage out;
  EXPECT_FALSE(DecodeCheckpoint(damaged, &out).ok());
  // Truncation (a torn rename never produces this, but a bad copy might).
  CheckpointImage out2;
  EXPECT_FALSE(DecodeCheckpoint(encoded.substr(0, encoded.size() - 5), &out2).ok());
}

// Crafted bodies behind valid CRCs: a count, arity or length larger than the
// bytes left in the file decodes to Corruption instead of reserving or
// assigning that many elements.
TEST(CheckpointTest, OversizedCountsAreCorruptionNotExceptions) {
  const auto magic_of = [](const std::string& file) {
    uint32_t magic = 0;
    std::memcpy(&magic, file.data(), sizeof(magic));
    return magic;
  };
  const auto varints = [](std::initializer_list<uint64_t> values) {
    std::string body;
    for (uint64_t v : values) PutVarint64(&body, v);
    return body;
  };
  std::string ckpt_file;
  EncodeCheckpoint(MakeCheckpoint(), &ckpt_file);
  std::string snap_file;
  EncodeImcsSnapshot(ImcsSnapshotImage{}, &snap_file);
  constexpr uint64_t kHuge = uint64_t{1} << 62;

  // Each body starts with seq, recovery_scn and end_scn.
  // (1) A huge table count.
  const std::string huge_tables = varints({1, 2, 3, kHuge});
  // (2) No tables, one block (dba, object, tenant, frontier) of one slot whose
  // one version (xid, live) claims a huge row arity.
  std::string huge_arity = varints({1, 2, 3, 0, 1, 11, 9, 2, 120, 1, 1, 5});
  huge_arity.push_back(0);
  huge_arity += varints({kHuge});
  // (3) One table (object id, tenant) whose name length wraps pos + len.
  const std::string wrapping_name =
      varints({1, 2, 3, 1, 9, 2, ~uint64_t{0} - 2});
  for (const std::string& body : {huge_tables, huge_arity, wrapping_name}) {
    std::string file;
    WrapChecked(magic_of(ckpt_file), body, &file);
    CheckpointImage out;
    Status s = Status::OK();
    EXPECT_NO_THROW(s = DecodeCheckpoint(file, &out));
    EXPECT_EQ(s.code(), Code::kCorruption) << s.ToString();
  }

  // (4) A snapshot (seq, floor_scn) with a huge SMU count.
  std::string file;
  WrapChecked(magic_of(snap_file), varints({1, 2, kHuge}), &file);
  ImcsSnapshotImage snap;
  Status s = Status::OK();
  EXPECT_NO_THROW(s = DecodeImcsSnapshot(file, &snap));
  EXPECT_EQ(s.code(), Code::kCorruption) << s.ToString();
}

TEST(ImcsSnapshotTest, EncodeDecodeRoundtrip) {
  ImcsSnapshotImage img;
  img.seq = 2;
  img.floor_scn = 90;
  SmuImage smu;
  smu.object_id = 9;
  smu.tenant = 2;
  smu.snapshot_scn = 95;
  smu.dbas = {11, 12};
  smu.column_types = {static_cast<uint8_t>(ValueType::kInt),
                      static_cast<uint8_t>(ValueType::kString)};
  smu.present_words = {0xFFull};
  smu.invalid_words = {0x1ull};
  // Columns travel in their ENCODED physical form.
  smu.columns.resize(2);
  IntColumnVector ints({int64_t{1}, int64_t{2}, std::nullopt});
  ints.SerializeTo(&smu.columns[0]);
  const std::string a = "a", b = "bb";
  StringColumnVector strs({&a, &b, nullptr});
  strs.SerializeTo(&smu.columns[1]);
  img.smus.push_back(std::move(smu));

  std::string encoded;
  EncodeImcsSnapshot(img, &encoded);
  ImcsSnapshotImage out;
  ASSERT_TRUE(DecodeImcsSnapshot(encoded, &out).ok());
  EXPECT_EQ(out.seq, 2u);
  EXPECT_EQ(out.floor_scn, 90u);
  ASSERT_EQ(out.smus.size(), 1u);
  EXPECT_EQ(out.smus[0].snapshot_scn, 95u);
  EXPECT_EQ(out.smus[0].dbas, (std::vector<Dba>{11, 12}));
  EXPECT_EQ(out.smus[0].present_words, (std::vector<uint64_t>{0xFFull}));
  EXPECT_EQ(out.smus[0].invalid_words, (std::vector<uint64_t>{0x1ull}));
  ASSERT_EQ(out.smus[0].columns.size(), 2u);

  size_t pos = 0;
  auto ic = DeserializeColumnVector(out.smus[0].columns[0], &pos);
  ASSERT_NE(ic, nullptr);
  EXPECT_EQ(ic->type(), ValueType::kInt);
  ASSERT_EQ(ic->size(), 3u);
  EXPECT_EQ(ic->Get(1).as_int(), 2);
  EXPECT_TRUE(ic->Get(2).is_null());
  pos = 0;
  auto sc = DeserializeColumnVector(out.smus[0].columns[1], &pos);
  ASSERT_NE(sc, nullptr);
  EXPECT_EQ(sc->type(), ValueType::kString);
  EXPECT_EQ(sc->Get(0).as_string(), "a");
  EXPECT_EQ(sc->Get(1).as_string(), "bb");
  EXPECT_TRUE(sc->Get(2).is_null());
  // The restored column still filters: order-preserving codes survived.
  std::vector<uint32_t> hits;
  sc->Filter(PredOp::kGe, Value(std::string("b")), &hits);
  EXPECT_EQ(hits, (std::vector<uint32_t>{1}));

  std::string damaged = encoded;
  damaged[damaged.size() - 1] ^= 0x01;
  ImcsSnapshotImage bad;
  EXPECT_FALSE(DecodeImcsSnapshot(damaged, &bad).ok());

  // Damage INSIDE a column blob that the outer CRC would not see in a
  // hand-carried blob: the column deserializer itself rejects it.
  std::string blob = out.smus[0].columns[1];
  blob[0] ^= 0x7F;  // Unknown type tag.
  pos = 0;
  EXPECT_EQ(DeserializeColumnVector(blob, &pos), nullptr);
}

TEST(PersistIoTest, AtomicWriteFileIsAllOrNothing) {
  std::string dir = testing::TempDir() + "stratus_ckpt_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  const std::string path = dir + "/file";
  ASSERT_TRUE(AtomicWriteFile(path, "first").ok());
  ASSERT_TRUE(AtomicWriteFile(path, "second-version").ok());
  std::string contents;
  ASSERT_TRUE(ReadFileFully(path, &contents).ok());
  EXPECT_EQ(contents, "second-version");
  // A sync fault fails the write and leaves the old contents intact.
  DiskFaultOptions fault_options;
  fault_options.sync_error_pct = 100;
  DiskFaultInjector faults(fault_options);
  EXPECT_FALSE(AtomicWriteFile(path, "torn", &faults).ok());
  contents.clear();
  ASSERT_TRUE(ReadFileFully(path, &contents).ok());
  EXPECT_EQ(contents, "second-version");
}

}  // namespace
}  // namespace persist
}  // namespace stratus
