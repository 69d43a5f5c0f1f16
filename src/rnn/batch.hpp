// A batch of sequence data plus labels.
//
// Layout: x[t] is the (B x input_size) slice of all sequences at timestep
// t. Labels are one per sequence for many-to-one models (size B) and one
// per (timestep, sequence) for many-to-many (size T*B, index t*B + b).
#pragma once

#include <vector>

#include "tensor/tensor.hpp"
#include "util/check.hpp"

namespace bpar::rnn {

struct BatchData {
  std::vector<tensor::Matrix> x;  // [T] matrices of shape B x input_size
  std::vector<int> labels;

  [[nodiscard]] int steps() const { return static_cast<int>(x.size()); }
  [[nodiscard]] int batch() const { return x.empty() ? 0 : x[0].rows(); }
  [[nodiscard]] int input_size() const { return x.empty() ? 0 : x[0].cols(); }

  [[nodiscard]] bool many_to_many() const {
    return static_cast<int>(labels.size()) == steps() * batch();
  }

  void validate(int expected_input, int expected_steps) const {
    BPAR_CHECK(steps() == expected_steps, "batch has ", steps(),
               " steps, model expects ", expected_steps);
    BPAR_CHECK(input_size() == expected_input, "batch input width ",
               input_size(), ", model expects ", expected_input);
    for (const auto& m : x) {
      BPAR_CHECK(m.rows() == batch() && m.cols() == input_size(),
                 "ragged batch");
    }
    BPAR_CHECK(static_cast<int>(labels.size()) == batch() ||
                   static_cast<int>(labels.size()) == steps() * batch(),
               "label count ", labels.size(), " matches neither B nor T*B");
  }
};

}  // namespace bpar::rnn
