// Model persistence: save trained Strudel^L / Strudel^C models to disk
// and restore them without retraining. The on-disk format is versioned,
// line-oriented text.
//
// Feature-extraction options (windows, derived-detector parameters,
// global-feature flag) are stored alongside the forests so a loaded model
// featurises inputs exactly like the one that was saved.

#ifndef STRUDEL_STRUDEL_MODEL_IO_H_
#define STRUDEL_STRUDEL_MODEL_IO_H_

#include <istream>
#include <ostream>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "strudel/strudel_cell.h"
#include "strudel/strudel_line.h"

namespace strudel {

/// Serialises a trained Strudel^L model. Fails on unfitted models.
Status SaveModel(const StrudelLine& model, std::ostream& out);
Status SaveModelToFile(const StrudelLine& model, const std::string& path);

/// Restores a Strudel^L model saved with SaveModel.
Result<StrudelLine> LoadLineModel(std::istream& in);
Result<StrudelLine> LoadLineModelFromFile(const std::string& path);

/// Serialises a trained Strudel^C model (including its line stage).
Status SaveModel(const StrudelCell& model, std::ostream& out);
Status SaveModelToFile(const StrudelCell& model, const std::string& path);

/// Restores a Strudel^C model saved with SaveModel.
Result<StrudelCell> LoadCellModel(std::istream& in);
Result<StrudelCell> LoadCellModelFromFile(const std::string& path);

}  // namespace strudel

#endif  // STRUDEL_STRUDEL_MODEL_IO_H_
