// Synthetic dataset tests: determinism, shapes, label validity, and basic
// statistical sanity (class separability / n-gram plausibility).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "data/tidigits.hpp"
#include "data/wikipedia.hpp"
#include "util/error.hpp"

namespace bpar::data {
namespace {

TEST(Tidigits, DeterministicForSeed) {
  TidigitsConfig cfg;
  cfg.num_utterances = 8;
  cfg.seq_length = 20;
  cfg.feature_dim = 6;
  TidigitsCorpus a(cfg);
  TidigitsCorpus b(cfg);
  for (int u = 0; u < cfg.num_utterances; ++u) {
    EXPECT_EQ(a.label(u), b.label(u));
    EXPECT_TRUE(tensor::allclose(a.frames(u), b.frames(u), 0.0F, 0.0F));
  }
  cfg.seed = 777;
  TidigitsCorpus c(cfg);
  EXPECT_FALSE(tensor::allclose(a.frames(0), c.frames(0), 1e-6F, 0.0F));
}

TEST(Tidigits, LabelsInRangeAndAllClassesPresent) {
  TidigitsConfig cfg;
  cfg.num_utterances = 300;
  cfg.seq_length = 10;
  cfg.feature_dim = 4;
  TidigitsCorpus corpus(cfg);
  std::set<int> seen;
  for (int u = 0; u < corpus.size(); ++u) {
    const int label = corpus.label(u);
    ASSERT_GE(label, 0);
    ASSERT_LT(label, kTidigitsClasses);
    seen.insert(label);
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kTidigitsClasses));
}

TEST(Tidigits, BatchShapesAndContent) {
  TidigitsConfig cfg;
  cfg.num_utterances = 50;
  cfg.seq_length = 12;
  cfg.feature_dim = 5;
  TidigitsCorpus corpus(cfg);
  const auto batches = corpus.make_batches(16);
  EXPECT_EQ(batches.size(), 3U);  // 50/16, tail dropped
  for (const auto& batch : batches) {
    EXPECT_EQ(batch.steps(), 12);
    EXPECT_EQ(batch.batch(), 16);
    EXPECT_EQ(batch.input_size(), 5);
    EXPECT_FALSE(batch.many_to_many());
  }
  // First batch row 0 equals utterance 0.
  EXPECT_EQ(batches[0].x[3].at(0, 2), corpus.frames(0).at(3, 2));
  EXPECT_EQ(batches[0].labels[0], corpus.label(0));
}

TEST(Tidigits, ClassesAreSeparableByTemplateCorrelation) {
  // Mean frames of utterances of the same digit should correlate more
  // than across digits — a weak but meaningful separability check.
  TidigitsConfig cfg;
  cfg.num_utterances = 200;
  cfg.seq_length = 30;
  cfg.feature_dim = 8;
  cfg.noise = 0.05;
  cfg.speaker_var = 0.05;
  TidigitsCorpus corpus(cfg);

  // Average per class over time and utterances.
  std::vector<std::vector<double>> mean(
      kTidigitsClasses, std::vector<double>(30U * 8U, 0.0));
  std::vector<int> counts(kTidigitsClasses, 0);
  for (int u = 0; u < corpus.size(); ++u) {
    const int label = corpus.label(u);
    ++counts[static_cast<std::size_t>(label)];
    const auto f = corpus.frames(u);
    for (int t = 0; t < 30; ++t) {
      for (int d = 0; d < 8; ++d) {
        mean[static_cast<std::size_t>(label)]
            [static_cast<std::size_t>(t * 8 + d)] +=
            static_cast<double>(f.at(t, d));
      }
    }
  }
  auto cosine = [](const std::vector<double>& a, const std::vector<double>& b) {
    double dot = 0.0;
    double na = 0.0;
    double nb = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      dot += a[i] * b[i];
      na += a[i] * a[i];
      nb += b[i] * b[i];
    }
    return dot / std::max(std::sqrt(na * nb), 1e-12);
  };
  // Distinct class templates should not be strongly aligned.
  int strongly_aligned = 0;
  for (int i = 0; i < kTidigitsClasses; ++i) {
    for (int j = i + 1; j < kTidigitsClasses; ++j) {
      if (counts[static_cast<std::size_t>(i)] == 0 ||
          counts[static_cast<std::size_t>(j)] == 0) {
        continue;
      }
      if (std::abs(cosine(mean[static_cast<std::size_t>(i)],
                          mean[static_cast<std::size_t>(j)])) > 0.8) {
        ++strongly_aligned;
      }
    }
  }
  EXPECT_LE(strongly_aligned, 5);
}

TEST(Tidigits, ClassNames) {
  EXPECT_STREQ(tidigits_class_name(0), "oh");
  EXPECT_STREQ(tidigits_class_name(1), "zero");
  EXPECT_STREQ(tidigits_class_name(10), "nine");
}

TEST(Wikipedia, CorpusLengthAndDeterminism) {
  WikipediaConfig cfg;
  cfg.corpus_chars = 5000;
  WikipediaCorpus a(cfg);
  WikipediaCorpus b(cfg);
  EXPECT_EQ(a.text().size(), 5000U);
  EXPECT_EQ(a.text(), b.text());
  cfg.seed = 9;
  WikipediaCorpus c(cfg);
  EXPECT_NE(a.text(), c.text());
}

TEST(Wikipedia, VocabularyIsConsistent) {
  WikipediaConfig cfg;
  cfg.corpus_chars = 4000;
  WikipediaCorpus corpus(cfg);
  EXPECT_GT(corpus.vocab_size(), 10);
  EXPECT_LE(corpus.vocab_size(), 40);  // lowercase text + punctuation
  for (int id = 0; id < corpus.vocab_size(); ++id) {
    EXPECT_EQ(corpus.char_id(corpus.id_char(id)), id);
  }
}

TEST(Wikipedia, GeneratedTextLooksLanguageLike) {
  WikipediaConfig cfg;
  cfg.corpus_chars = 20000;
  WikipediaCorpus corpus(cfg);
  // Spaces should appear with a natural frequency (10-25%).
  const auto spaces = static_cast<double>(
      std::count(corpus.text().begin(), corpus.text().end(), ' '));
  const double frac = spaces / static_cast<double>(corpus.text().size());
  EXPECT_GT(frac, 0.10);
  EXPECT_LT(frac, 0.30);
  // Every sampled trigram must have been possible under order-2 statistics
  // of English-like text: check there are no weird repeats of one char.
  EXPECT_EQ(corpus.text().find("zzzz"), std::string::npos);
}

TEST(Wikipedia, BatchesAreManyToManyWithNextCharLabels) {
  WikipediaConfig cfg;
  cfg.corpus_chars = 30000;
  cfg.seq_length = 6;
  cfg.input_size = 10;
  WikipediaCorpus corpus(cfg);
  const auto batches = corpus.make_batches(4, 3);
  ASSERT_EQ(batches.size(), 3U);
  const auto& batch = batches[0];
  EXPECT_EQ(batch.steps(), 6);
  EXPECT_EQ(batch.batch(), 4);
  EXPECT_TRUE(batch.many_to_many());
  // Labels are the next character: x[t+1]'s char id equals labels[t].
  // Verify via embeddings: the embedding of labels[t*B+b] must equal
  // x[t+1] row b.
  for (int t = 0; t + 1 < batch.steps(); ++t) {
    for (int b = 0; b < batch.batch(); ++b) {
      const int label = batch.labels[static_cast<std::size_t>(t) * 4 + b];
      const auto emb = corpus.embedding(label);
      const auto row = batch.x[static_cast<std::size_t>(t) + 1].cview().row(b);
      for (std::size_t i = 0; i < emb.size(); ++i) {
        ASSERT_EQ(row[i], emb[i]) << "t=" << t << " b=" << b;
      }
    }
  }
}

TEST(Wikipedia, EmbeddingsDistinctPerCharacter) {
  WikipediaConfig cfg;
  cfg.corpus_chars = 3000;
  WikipediaCorpus corpus(cfg);
  const auto a = corpus.embedding(0);
  const auto b = corpus.embedding(1);
  bool differ = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) differ = true;
  }
  EXPECT_TRUE(differ);
}


TEST(Tidigits, VariableLengthsAndBuckets) {
  TidigitsConfig cfg;
  cfg.num_utterances = 120;
  cfg.seq_length = 14;
  cfg.min_seq_length = 10;
  cfg.feature_dim = 4;
  TidigitsCorpus corpus(cfg);
  std::set<int> lengths;
  for (int u = 0; u < corpus.size(); ++u) {
    const int len = corpus.length(u);
    ASSERT_GE(len, 10);
    ASSERT_LE(len, 14);
    lengths.insert(len);
  }
  EXPECT_GT(lengths.size(), 1U);  // actually variable

  const auto batches = corpus.make_bucketed_batches(8);
  ASSERT_FALSE(batches.empty());
  std::set<int> batch_lengths;
  for (const auto& batch : batches) {
    EXPECT_EQ(batch.batch(), 8);
    batch_lengths.insert(batch.steps());
    // Every row matches an utterance of exactly that length.
    EXPECT_GE(batch.steps(), 10);
    EXPECT_LE(batch.steps(), 14);
  }
  EXPECT_GT(batch_lengths.size(), 1U);
}

TEST(Tidigits, FixedLengthCorpusRejectsBucketlessMisuse) {
  TidigitsConfig cfg;
  cfg.num_utterances = 20;
  cfg.seq_length = 8;
  cfg.min_seq_length = 5;
  cfg.feature_dim = 3;
  TidigitsCorpus corpus(cfg);
  EXPECT_DEATH((void)corpus.make_batches(4), "make_bucketed_batches");
}

// ---- on-disk loader error paths ------------------------------------------

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// Writes a .utt file; features are the deterministic ramp 0.01 * index.
void write_utt(const std::string& path, std::int32_t label,
               std::int32_t frames, std::int32_t dim,
               const std::string& magic = "BPARUTT1",
               std::size_t truncate_to = std::string::npos) {
  std::string blob = magic;
  const auto put_i32 = [&blob](std::int32_t v) {
    blob.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  put_i32(label);
  put_i32(frames);
  put_i32(dim);
  for (std::int32_t i = 0; i < frames * dim; ++i) {
    const float f = 0.01F * static_cast<float>(i);
    blob.append(reinterpret_cast<const char*>(&f), sizeof f);
  }
  if (truncate_to < blob.size()) blob.resize(truncate_to);
  std::ofstream os(path, std::ios::binary);
  os.write(blob.data(), static_cast<std::streamsize>(blob.size()));
}

std::string data_error_message(const TidigitsConfig& cfg) {
  try {
    TidigitsCorpus corpus(cfg);
  } catch (const util::DataError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected util::DataError";
  return {};
}

TEST(TidigitsLoader, MissingDirectoryNamesPathAndLayout) {
  TidigitsConfig cfg;
  cfg.feature_dim = 4;
  cfg.seq_length = 8;
  cfg.data_dir = ::testing::TempDir() + "/no-such-dir";
  const std::string what = data_error_message(cfg);
  EXPECT_NE(what.find(cfg.data_dir), std::string::npos) << what;
  EXPECT_NE(what.find(".utt"), std::string::npos) << what;
}

TEST(TidigitsLoader, DirectoryWithoutUtterancesRaises) {
  TidigitsConfig cfg;
  cfg.feature_dim = 4;
  cfg.seq_length = 8;
  cfg.data_dir = fresh_dir("utt-empty");
  const std::string what = data_error_message(cfg);
  EXPECT_NE(what.find("no .utt files"), std::string::npos) << what;
}

TEST(TidigitsLoader, BadMagicNamesFile) {
  TidigitsConfig cfg;
  cfg.feature_dim = 4;
  cfg.seq_length = 8;
  cfg.data_dir = fresh_dir("utt-magic");
  write_utt(cfg.data_dir + "/a.utt", 1, 8, 4, "WRONGMG!");
  const std::string what = data_error_message(cfg);
  EXPECT_NE(what.find("a.utt"), std::string::npos) << what;
  EXPECT_NE(what.find("not a TIDIGITS utterance"), std::string::npos) << what;
}

TEST(TidigitsLoader, FeatureDimMismatchNamesBothDims) {
  TidigitsConfig cfg;
  cfg.feature_dim = 7;
  cfg.seq_length = 8;
  cfg.data_dir = fresh_dir("utt-dim");
  write_utt(cfg.data_dir + "/a.utt", 1, 8, 5);
  const std::string what = data_error_message(cfg);
  EXPECT_NE(what.find("feature_dim is 5"), std::string::npos) << what;
  EXPECT_NE(what.find("7 in the config"), std::string::npos) << what;
}

TEST(TidigitsLoader, TruncatedFileReportsByteCounts) {
  TidigitsConfig cfg;
  cfg.feature_dim = 4;
  cfg.seq_length = 8;
  cfg.data_dir = fresh_dir("utt-trunc");
  // Header promises 8x4 floats; cut the payload in half.
  write_utt(cfg.data_dir + "/a.utt", 1, 8, 4, "BPARUTT1",
            8 + 12 + 8 * 4 * sizeof(float) / 2);
  const std::string what = data_error_message(cfg);
  EXPECT_NE(what.find("truncated"), std::string::npos) << what;
  EXPECT_NE(what.find("a.utt"), std::string::npos) << what;
}

TEST(TidigitsLoader, LoadsWellFormedUtterances) {
  TidigitsConfig cfg;
  cfg.feature_dim = 4;
  cfg.seq_length = 6;  // shorter than the files: trims to the window
  cfg.data_dir = fresh_dir("utt-good");
  write_utt(cfg.data_dir + "/a.utt", 3, 10, 4);
  write_utt(cfg.data_dir + "/b.utt", 9, 10, 4);
  TidigitsCorpus corpus(cfg);
  ASSERT_EQ(corpus.size(), 2);
  EXPECT_EQ(corpus.label(0), 3);
  EXPECT_EQ(corpus.label(1), 9);
  const auto f = corpus.frames(0);
  ASSERT_EQ(f.rows, 6);
  ASSERT_EQ(f.cols, 4);
  // Row-major ramp from write_utt: element (r, c) == 0.01 * (r*dim + c).
  EXPECT_FLOAT_EQ(f.row(2)[3], 0.01F * (2 * 4 + 3));
}

TEST(TidigitsLoader, FallbackKnobDegradesToSynthetic) {
  TidigitsConfig cfg;
  cfg.feature_dim = 4;
  cfg.seq_length = 8;
  cfg.num_utterances = 12;
  cfg.data_dir = ::testing::TempDir() + "/no-such-dir";
  cfg.fallback_to_synthetic = true;
  TidigitsCorpus loaded(cfg);
  TidigitsConfig pure = cfg;
  pure.data_dir.clear();
  TidigitsCorpus synthetic(pure);
  ASSERT_EQ(loaded.size(), synthetic.size());
  EXPECT_TRUE(
      tensor::allclose(loaded.frames(0), synthetic.frames(0), 0.0F, 0.0F));
}

TEST(WikipediaLoader, MissingCorpusFileNamesPath) {
  WikipediaConfig cfg;
  cfg.input_size = 8;
  cfg.seq_length = 8;
  cfg.corpus_chars = 1000;
  cfg.corpus_path = ::testing::TempDir() + "/no-such-corpus.txt";
  try {
    WikipediaCorpus corpus(cfg);
    FAIL() << "expected util::DataError";
  } catch (const util::DataError& e) {
    EXPECT_NE(std::string(e.what()).find(cfg.corpus_path),
              std::string::npos);
  }
}

TEST(WikipediaLoader, TinyCorpusFileRaises) {
  WikipediaConfig cfg;
  cfg.input_size = 8;
  cfg.seq_length = 8;
  cfg.corpus_chars = 1000;
  const std::string dir = fresh_dir("wiki-tiny");
  cfg.corpus_path = dir + "/corpus.txt";
  std::ofstream(cfg.corpus_path) << "too small";
  EXPECT_THROW(WikipediaCorpus corpus(cfg), util::DataError);
}

TEST(WikipediaLoader, LargeCorpusFileIsUsedVerbatim) {
  WikipediaConfig cfg;
  cfg.input_size = 8;
  cfg.seq_length = 8;
  cfg.corpus_chars = 64;
  const std::string dir = fresh_dir("wiki-verbatim");
  cfg.corpus_path = dir + "/corpus.txt";
  std::string body;
  while (body.size() < 200) body += "the quick brown fox jumps over it ";
  std::ofstream(cfg.corpus_path) << body;
  WikipediaCorpus corpus(cfg);
  EXPECT_EQ(corpus.text(), body.substr(0, 64));
}

TEST(WikipediaLoader, FallbackKnobMatchesPureSynthetic) {
  WikipediaConfig cfg;
  cfg.input_size = 8;
  cfg.seq_length = 8;
  cfg.corpus_chars = 2000;
  cfg.corpus_path = ::testing::TempDir() + "/no-such-corpus.txt";
  cfg.fallback_to_synthetic = true;
  WikipediaCorpus loaded(cfg);
  WikipediaConfig pure = cfg;
  pure.corpus_path.clear();
  WikipediaCorpus synthetic(pure);
  EXPECT_EQ(loaded.text(), synthetic.text());
}

}  // namespace
}  // namespace bpar::data
