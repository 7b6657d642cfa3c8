// DNN computation graph: a DAG of layers with shape inference and
// FLOP/parameter accounting.
//
// Layers are appended in topological order by construction (every input of a
// new layer must already exist), so the storage order doubles as the
// topological flattening the paper's formulation uses (L1..LN).
#pragma once

#include <string>
#include <vector>

#include "mars/graph/layer.h"
#include "mars/graph/tensor.h"
#include "mars/util/units.h"

namespace mars::graph {

class Graph {
 public:
  explicit Graph(std::string name, DataType dtype = DataType::kFix16);

  // --- construction -------------------------------------------------------
  LayerId add_input(TensorShape shape, std::string name = "input");
  LayerId add_conv(std::string name, LayerId input, const ConvAttrs& attrs);
  LayerId add_linear(std::string name, LayerId input, const LinearAttrs& attrs);
  LayerId add_max_pool(std::string name, LayerId input, const PoolAttrs& attrs);
  LayerId add_avg_pool(std::string name, LayerId input, const PoolAttrs& attrs);
  LayerId add_global_avg_pool(std::string name, LayerId input);
  LayerId add_batch_norm(std::string name, LayerId input);
  LayerId add_relu(std::string name, LayerId input);
  LayerId add_add(std::string name, LayerId lhs, LayerId rhs);
  LayerId add_concat(std::string name, const std::vector<LayerId>& inputs);
  LayerId add_flatten(std::string name, LayerId input);

  // --- inspection ---------------------------------------------------------
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] DataType dtype() const { return dtype_; }
  [[nodiscard]] int size() const { return static_cast<int>(layers_.size()); }
  [[nodiscard]] const Layer& layer(LayerId id) const;
  [[nodiscard]] const std::vector<Layer>& layers() const { return layers_; }

  /// Layers that consume `id`'s output.
  [[nodiscard]] std::vector<LayerId> consumers(LayerId id) const;

  /// Graph sinks (layers nobody consumes) — the network outputs.
  [[nodiscard]] std::vector<LayerId> outputs() const;
  /// Graph sources (kInput layers).
  [[nodiscard]] std::vector<LayerId> inputs() const;

  [[nodiscard]] double total_params() const;
  [[nodiscard]] double total_macs() const;
  /// Number of convolution layers (the paper's "#Convs" column counts
  /// convolutions only, excluding linear layers).
  [[nodiscard]] int num_convs() const;
  [[nodiscard]] int num_spine_layers() const;

  /// Structural sanity check: connectivity, shape consistency, acyclicity
  /// (guaranteed by construction but re-verified). Single-component
  /// enforcement is skipped when `require_connected` is false (spine
  /// extraction accepts graphs with several components).
  void validate(bool require_connected = true) const;

  /// Graphviz dot rendering for debugging / documentation.
  [[nodiscard]] std::string to_dot() const;

 private:
  LayerId append(Layer layer);
  [[nodiscard]] const Layer& checked_input(LayerId id) const;

  std::string name_;
  DataType dtype_;
  std::vector<Layer> layers_;
};

}  // namespace mars::graph
