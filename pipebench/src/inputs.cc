#include "inputs.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/rng.h"
#include "common/string_util.h"
#include "datagen/annotated_io.h"
#include "datagen/profiles.h"
#include "datagen/table_builder.h"
#include "strudel/classes.h"

namespace pipebench {

namespace fs = std::filesystem;
using strudel::Rng;
using strudel::Status;
using strudel::StrFormat;

namespace {

constexpr int kMetadata = static_cast<int>(strudel::ElementClass::kMetadata);
constexpr int kHeader = static_cast<int>(strudel::ElementClass::kHeader);
constexpr int kData = static_cast<int>(strudel::ElementClass::kData);
constexpr int kDerived = static_cast<int>(strudel::ElementClass::kDerived);
constexpr int kNotes = static_cast<int>(strudel::ElementClass::kNotes);

/// Seed of the training corpus. Workload inputs draw from streams keyed
/// by (run seed, workload tag), which never reach this constant's
/// streams; run.py also checks content hashes for overlap.
constexpr uint64_t kTrainingSeed = 0x5452414953ull;

template <size_t N>
const char* Pick(Rng& rng, const char* const (&options)[N]) {
  return options[rng.UniformInt(static_cast<uint64_t>(N))];
}

std::string Amount(long long value) { return std::to_string(value); }

// ---------------------------------------------------------------------
// keyword_rows shape 1: a long-format statistical release whose category
// columns carry "All ages" / "All persons" levels. Every aggregate row
// is the true sum of the rows it aggregates, so Algorithm 2 has real
// arithmetic to find, and every one of them anchors a scan.
strudel::AnnotatedFile LongFormatRelease(Rng& rng, int target_rows,
                                         const std::string& name) {
  static const char* const kTopics[] = {
      "Population estimates", "Claimant count", "Hospital admissions",
      "Household income", "Employment by occupation"};
  static const char* const kRegions[] = {
      "North East", "North West", "Yorkshire", "East Midlands",
      "West Midlands", "East", "London", "South East", "South West",
      "Wales", "Scotland", "Northern Ireland"};
  static const char* const kBands[] = {"0-15",  "16-24", "25-34", "35-49",
                                       "50-64", "65-79", "80+"};
  constexpr int kNumBands = 7;
  strudel::datagen::AnnotatedFileBuilder builder;
  builder.AddUniformRow({StrFormat("Table %d.%d: %s by region, age band and "
                                   "sex",
                                   static_cast<int>(rng.UniformInt(1, 9)),
                                   static_cast<int>(rng.UniformInt(1, 20)),
                                   Pick(rng, kTopics))},
                        kMetadata);
  builder.AddUniformRow({"Source: annual survey, " +
                         std::to_string(rng.UniformInt(2015, 2022)) +
                         " release"},
                        kMetadata);
  builder.AddBlankRow();
  builder.AddUniformRow({"Year", "Region", "Age band", "Sex", "Estimate",
                         "Lower bound", "Upper bound"},
                        kHeader);
  // One block per (year, region): 2 sexes x bands, 2 "All ages" rows,
  // bands "All persons" rows and one grand total.
  const int block_rows = 3 * kNumBands + 3;
  const int blocks = std::max(1, (target_rows - 8) / block_rows);
  int year = static_cast<int>(rng.UniformInt(2001, 2010));
  for (int b = 0; b < blocks; ++b) {
    const std::string region =
        kRegions[static_cast<size_t>(b) % std::size(kRegions)];
    if (b > 0 && b % static_cast<int>(std::size(kRegions)) == 0) ++year;
    const std::string y = std::to_string(year);
    long long est[2][kNumBands];
    long long lo[2][kNumBands];
    long long hi[2][kNumBands];
    const char* const sexes[2] = {"Male", "Female"};
    for (int s = 0; s < 2; ++s) {
      for (int a = 0; a < kNumBands; ++a) {
        est[s][a] = rng.UniformInt(400, 60000);
        lo[s][a] = est[s][a] - rng.UniformInt(10, est[s][a] / 20 + 11);
        hi[s][a] = est[s][a] + rng.UniformInt(10, est[s][a] / 20 + 11);
        builder.AddUniformRow({y, region, kBands[a], sexes[s],
                               Amount(est[s][a]), Amount(lo[s][a]),
                               Amount(hi[s][a])},
                              kData);
      }
    }
    long long all_ages[3][3] = {};
    for (int s = 0; s < 2; ++s) {
      long long e = 0, l = 0, h = 0;
      for (int a = 0; a < kNumBands; ++a) {
        e += est[s][a];
        l += lo[s][a];
        h += hi[s][a];
      }
      all_ages[s][0] = e;
      all_ages[s][1] = l;
      all_ages[s][2] = h;
      builder.AddUniformRow({y, region, "All ages", sexes[s], Amount(e),
                             Amount(l), Amount(h)},
                            kDerived);
    }
    for (int a = 0; a < kNumBands; ++a) {
      builder.AddUniformRow(
          {y, region, kBands[a], "All persons",
           Amount(est[0][a] + est[1][a]), Amount(lo[0][a] + lo[1][a]),
           Amount(hi[0][a] + hi[1][a])},
          kDerived);
    }
    builder.AddUniformRow(
        {y, region, "All ages", "All persons",
         Amount(all_ages[0][0] + all_ages[1][0]),
         Amount(all_ages[0][1] + all_ages[1][1]),
         Amount(all_ages[0][2] + all_ages[1][2])},
        kDerived);
  }
  builder.AddBlankRow();
  builder.AddUniformRow({"Note: all figures are rounded to the nearest "
                         "unit and may not sum exactly."},
                        kNotes);
  builder.AddUniformRow({"Estimates for the latest year are provisional."},
                        kNotes);
  return std::move(builder).Build(name);
}

// keyword_rows shape 2: a spending register whose free-text description
// column often holds aggregation words ("all", "total", "average"), so
// ordinary data rows anchor Algorithm 2 scans that find nothing.
strudel::AnnotatedFile SpendingRegister(Rng& rng, int target_rows,
                                        const std::string& name) {
  static const char* const kDepartments[] = {
      "Adult Social Care", "Children's Services", "Highways", "Housing",
      "Libraries", "Parks and Open Spaces", "Waste Management", "Finance"};
  static const char* const kSuppliers[] = {
      "Acme Facilities Ltd", "Northgate Services", "Civic Build plc",
      "Greenway Contractors", "Harbour IT Solutions", "Mills & Co",
      "Riverside Catering", "Summit Consulting LLP"};
  static const char* const kVerbs[] = {"Repair of", "Annual maintenance of",
                                       "Replacement of", "Inspection of",
                                       "Cleaning of", "Supply of",
                                       "Installation of", "Survey of"};
  static const char* const kObjects[] = {
      "street lighting columns", "school boiler plant", "library roofs",
      "play equipment", "fleet vehicles", "office furniture",
      "network switches", "care home kitchens", "bridge joints",
      "sports hall flooring"};
  static const char* const kQualifiers[] = {
      "at all sites in the north area", "total refurbishment phase 2",
      "across all wards", "average cost per unit agreed",
      "for all council depots", "including total disposal costs",
      "as per framework lot 3", "under emergency powers",
      "following condition survey", "with twelve month warranty",
      "in the town centre", "at the civic offices"};
  strudel::datagen::AnnotatedFileBuilder builder;
  builder.AddUniformRow({"Spending over 500 pounds register"}, kMetadata);
  builder.AddUniformRow({StrFormat("Period: %02d/%d",
                                   static_cast<int>(rng.UniformInt(1, 12)),
                                   static_cast<int>(
                                       rng.UniformInt(2015, 2022)))},
                        kMetadata);
  builder.AddBlankRow();
  builder.AddUniformRow({"Reference", "Date", "Department", "Supplier",
                         "Description", "Net amount", "VAT"},
                        kHeader);
  const int rows = std::max(4, target_rows - 8);
  long long net_total = 0;
  long long vat_total = 0;
  const int ref_base = static_cast<int>(rng.UniformInt(10000, 80000));
  for (int r = 0; r < rows; ++r) {
    const long long net = rng.UniformInt(500, 250000);
    const long long vat = net / 5;
    net_total += net;
    vat_total += vat;
    builder.AddUniformRow(
        {StrFormat("INV-%d", ref_base + r),
         StrFormat("%04d-%02d-%02d", static_cast<int>(rng.UniformInt(2015, 2022)),
                   static_cast<int>(rng.UniformInt(1, 12)),
                   static_cast<int>(rng.UniformInt(1, 28))),
         Pick(rng, kDepartments), Pick(rng, kSuppliers),
         std::string(Pick(rng, kVerbs)) + " " + Pick(rng, kObjects) + " " +
             Pick(rng, kQualifiers),
         Amount(net), Amount(vat)},
        kData);
  }
  builder.AddUniformRow({"Total", "", "", "", "", Amount(net_total),
                         Amount(vat_total)},
                        kDerived);
  builder.AddBlankRow();
  builder.AddUniformRow({"All amounts exclude irrecoverable VAT."}, kNotes);
  return std::move(builder).Build(name);
}

/// Layouts of workload files are a constant of the benchmark: file i of
/// a workload always gets layout i (tables, header shape, row and column
/// counts, derived lines), drawn from this seed through the datagen
/// template mechanism. The run seed varies the values. So every seed
/// offers the same volume and class mix, and metrics compare across
/// seeds.
constexpr uint64_t kLayoutSeed = 0x4c41594f5554ull;

strudel::datagen::FileGenSpec WithFixedLayout(
    strudel::datagen::FileGenSpec spec, uint64_t layout) {
  spec.num_templates = 1;
  spec.template_seed = strudel::SplitMix64Stream(kLayoutSeed, layout);
  return spec;
}

/// A paper-size portal profile file (GovUK, SAUS, CIUS, DeEx or Troy).
strudel::AnnotatedFile PortalFile(int index, Rng& rng,
                                  const std::string& name) {
  static const char* const kProfiles[] = {"govuk", "saus", "cius", "deex",
                                          "troy"};
  const strudel::datagen::DatasetProfile profile =
      strudel::datagen::ProfileByName(kProfiles[index % 5]);
  return strudel::datagen::GenerateFile(
      WithFixedLayout(profile.spec, static_cast<uint64_t>(index)), rng, name);
}

/// A Mendeley-profile file with a fixed number of data rows.
strudel::AnnotatedFile MendeleyFile(int data_rows, Rng& rng,
                                    const std::string& name,
                                    uint64_t layout) {
  strudel::datagen::DatasetProfile profile =
      strudel::datagen::MendeleyProfile();
  profile.spec.group_fractions = {1, 1};
  profile.spec.tables = {1, 1};
  profile.spec.data_columns = {6, 6};
  profile.spec.rows_per_fraction = {data_rows, data_rows};
  return strudel::datagen::GenerateFile(WithFixedLayout(profile.spec, layout),
                                        rng, name);
}

Status Save(const strudel::AnnotatedFile& file, const std::string& inputs_dir,
            const std::string& labels_dir) {
  if (file.table.num_rows() == 0) {
    return Status::Internal("generator produced an empty file: " + file.name);
  }
  const std::string labels_csv = (fs::path(labels_dir) / file.name).string();
  STRUDEL_RETURN_IF_ERROR(
      strudel::datagen::SaveAnnotatedFile(file, labels_csv));
  // The program sees only the CSV; the labelled copy stays beside its
  // sidecar so the labels directory is a loadable annotated corpus.
  std::error_code ec;
  fs::copy_file(labels_csv, fs::path(inputs_dir) / file.name,
                fs::copy_options::overwrite_existing, ec);
  if (ec) return Status::IOError("cannot copy " + labels_csv);
  return Status::OK();
}

/// Empties `inputs_dir` and `labels_dir`, creating them if needed.
Status ResetDirs(const std::string& inputs_dir,
                 const std::string& labels_dir) {
  std::error_code ec;
  fs::remove_all(inputs_dir, ec);
  fs::remove_all(labels_dir, ec);
  fs::create_directories(inputs_dir, ec);
  fs::create_directories(labels_dir, ec);
  if (ec) return Status::IOError("cannot create " + inputs_dir);
  return Status::OK();
}

uint64_t WorkloadTag(const std::string& workload) {
  return Fnv1a(workload);
}

/// mendeley_large: data-row counts of its files (1 to 3 MB each) and the
/// layout of file i, kMendeleyLayoutBase + i. An odd file count keeps
/// the per-file p50 inside one file's samples.
constexpr int kMendeleyRows[] = {20000, 30000, 40000, 50000, 60000};
constexpr uint64_t kMendeleyLayoutBase = 1000;

/// mendeley_large's accuracy set: further value draws of each of its
/// layouts, shorter. Its five files hold only about 30 header and 30
/// metadata cells, so their F1 turns on a few lines per seed. With the
/// accuracy set every class has at least 96 labelled cells, well above
/// the 20 that cell_macro_f1 asks of a class.
constexpr int kAccuracyDrawsPerLayout = 95;
constexpr int kAccuracyDataRows = 400;

}  // namespace

uint64_t Fnv1a(const std::string& data, uint64_t hash) {
  for (unsigned char c : data) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

Status WriteTrainingCorpus(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create " + dir);
  // Report profiles at the half size `strudel gen` uses, a few Mendeley
  // files and small keyword-shaped files, so the model has seen every
  // layout family the workloads contain.
  std::vector<strudel::AnnotatedFile> corpus;
  const char* const profiles[] = {"govuk", "saus", "cius", "deex", "troy"};
  for (size_t p = 0; p < std::size(profiles); ++p) {
    auto profile = strudel::datagen::ScaledProfile(
        strudel::datagen::ProfileByName(profiles[p]), 1.0, 0.5);
    Rng rng(strudel::SplitMix64Stream(kTrainingSeed, p));
    for (int i = 0; i < 16; ++i) {
      Rng file_rng = rng.Fork();
      corpus.push_back(strudel::datagen::GenerateFile(
          profile.spec, file_rng,
          StrFormat("train_%s_%02d.csv", profiles[p], i)));
    }
  }
  Rng rng(strudel::SplitMix64Stream(kTrainingSeed, 100));
  for (int i = 0; i < 3; ++i) {
    corpus.push_back(MendeleyFile(static_cast<int>(rng.UniformInt(400, 1500)),
                                  rng, StrFormat("train_mendeley_%02d.csv", i),
                                  rng.Next()));
  }
  for (int i = 0; i < 4; ++i) {
    corpus.push_back(LongFormatRelease(
        rng, static_cast<int>(rng.UniformInt(80, 160)),
        StrFormat("train_longformat_%02d.csv", i)));
    corpus.push_back(SpendingRegister(
        rng, static_cast<int>(rng.UniformInt(80, 160)),
        StrFormat("train_register_%02d.csv", i)));
  }
  return strudel::datagen::SaveAnnotatedCorpus(corpus, dir);
}

Status WriteWorkloadInputs(const std::string& workload, uint64_t seed,
                           const std::string& inputs_dir,
                           const std::string& labels_dir) {
  STRUDEL_RETURN_IF_ERROR(ResetDirs(inputs_dir, labels_dir));
  const uint64_t root = strudel::SplitMix64Stream(seed, WorkloadTag(workload));
  auto file_rng = [root](uint64_t index) {
    return Rng(strudel::SplitMix64Stream(root, index));
  };
  if (workload == "portal_batch") {
    // Equal counts of the five report profiles at paper size.
    for (int i = 0; i < 600; ++i) {
      Rng rng = file_rng(static_cast<uint64_t>(i));
      STRUDEL_RETURN_IF_ERROR(
          Save(PortalFile(i, rng, StrFormat("portal_%04d.csv", i)),
               inputs_dir, labels_dir));
    }
    return Status::OK();
  }
  if (workload == "mendeley_large") {
    for (size_t i = 0; i < std::size(kMendeleyRows); ++i) {
      Rng rng = file_rng(i);
      STRUDEL_RETURN_IF_ERROR(
          Save(MendeleyFile(kMendeleyRows[i], rng,
                            StrFormat("mendeley_%zu.csv", i),
                            kMendeleyLayoutBase + i),
               inputs_dir, labels_dir));
    }
    return Status::OK();
  }
  if (workload == "keyword_rows") {
    // Both shapes across the 1-2.5k row range. An odd file count keeps
    // the per-file p50 inside one file's samples.
    struct Shape {
      bool long_format;
      int rows;
    };
    const Shape shapes[] = {{true, 1000}, {false, 1000}, {false, 1750},
                            {true, 2500}, {false, 2500}};
    for (size_t i = 0; i < std::size(shapes); ++i) {
      Rng rng = file_rng(i);
      const Shape& shape = shapes[i];
      STRUDEL_RETURN_IF_ERROR(Save(
          shape.long_format
              ? LongFormatRelease(rng, shape.rows,
                                  StrFormat("longformat_%d.csv", shape.rows))
              : SpendingRegister(rng, shape.rows,
                                 StrFormat("register_%d.csv", shape.rows)),
          inputs_dir, labels_dir));
    }
    return Status::OK();
  }
  return Status::InvalidArgument("unknown workload: " + workload);
}

Status WriteAccuracyInputs(const std::string& workload, uint64_t seed,
                           const std::string& inputs_dir,
                           const std::string& labels_dir) {
  STRUDEL_RETURN_IF_ERROR(ResetDirs(inputs_dir, labels_dir));
  if (workload != "mendeley_large") return Status::OK();
  // Streams of their own, apart from the workload files' streams.
  const uint64_t root =
      strudel::SplitMix64Stream(seed, WorkloadTag(workload + "/accuracy"));
  uint64_t stream = 0;
  for (int draw = 0; draw < kAccuracyDrawsPerLayout; ++draw) {
    for (size_t i = 0; i < std::size(kMendeleyRows); ++i) {
      Rng rng(strudel::SplitMix64Stream(root, stream++));
      STRUDEL_RETURN_IF_ERROR(
          Save(MendeleyFile(kAccuracyDataRows, rng,
                            StrFormat("accuracy_%zu_%02d.csv", i, draw),
                            kMendeleyLayoutBase + i),
               inputs_dir, labels_dir));
    }
  }
  return Status::OK();
}

strudel::Result<std::vector<LabeledInput>> LoadInputs(
    const std::string& inputs_dir, const std::string& labels_dir) {
  std::vector<LabeledInput> inputs;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(inputs_dir, ec)) {
    if (!entry.is_regular_file()) continue;
    LabeledInput input;
    input.name = entry.path().filename().string();
    input.path = entry.path().string();
    input.bytes = entry.file_size();
    inputs.push_back(std::move(input));
  }
  if (ec) return Status::IOError("cannot list " + inputs_dir);
  std::sort(inputs.begin(), inputs.end(),
            [](const LabeledInput& a, const LabeledInput& b) {
              return a.name < b.name;
            });
  for (LabeledInput& input : inputs) {
    const std::string sidecar =
        (fs::path(labels_dir) / (input.name + ".labels")).string();
    std::ifstream in(sidecar);
    if (!in) return Status::IOError("missing labels: " + sidecar);
    std::vector<std::vector<int>> grid;
    std::string line;
    while (std::getline(in, line)) {
      if (strudel::TrimView(line).empty()) continue;
      const std::vector<std::string> fields = strudel::Split(line, '\t');
      std::vector<int> row;
      for (size_t c = 1; c < fields.size(); ++c) {
        row.push_back(strudel::ElementClassFromName(strudel::Trim(fields[c])));
      }
      grid.push_back(std::move(row));
    }
    input.rows = static_cast<int>(grid.size());
    input.cols = grid.empty() ? 0 : static_cast<int>(grid[0].size());
    input.cell_labels.reserve(static_cast<size_t>(input.rows) *
                              static_cast<size_t>(input.cols));
    for (const auto& row : grid) {
      if (static_cast<int>(row.size()) != input.cols) {
        return Status::Internal("ragged labels: " + sidecar);
      }
      for (int label : row) {
        input.cell_labels.push_back(label);
        if (label != strudel::kEmptyLabel) ++input.cells;
      }
    }
  }
  return inputs;
}

std::string CheckOutput(const LabeledInput& input, const std::string& output,
                        strudel::ml::ConfusionMatrix* confusion) {
  const int cols = input.cols;
  std::vector<int> predicted(input.cell_labels.size(), strudel::kEmptyLabel);
  int row = 0;
  size_t pos = 0;
  while (pos < output.size()) {
    size_t end = output.find('\n', pos);
    if (end == std::string::npos) end = output.size();
    std::istringstream line(output.substr(pos, end - pos));
    pos = end + 1;
    if (row >= input.rows) {
      return StrFormat("more rows than the input's %d", input.rows);
    }
    int index = -1;
    std::string line_class;
    if (!(line >> index >> line_class) || index != row) {
      return StrFormat("row %d: malformed line", row);
    }
    std::string token;
    while (line >> token) {
      const size_t colon = token.find(':');
      if (colon == std::string::npos) {
        return StrFormat("row %d: malformed cell '%s'", row, token.c_str());
      }
      const int col = std::atoi(token.substr(0, colon).c_str());
      const int cls = strudel::ElementClassFromName(token.substr(colon + 1));
      if (col < 0 || col >= cols || cls == strudel::kEmptyLabel) {
        return StrFormat("row %d: bad cell '%s'", row, token.c_str());
      }
      predicted[static_cast<size_t>(row) * static_cast<size_t>(cols) +
                static_cast<size_t>(col)] = cls;
    }
    ++row;
  }
  if (row != input.rows) {
    return StrFormat("%d rows, input has %d", row, input.rows);
  }
  for (size_t i = 0; i < predicted.size(); ++i) {
    const bool labelled = input.cell_labels[i] != strudel::kEmptyLabel;
    const bool classified = predicted[i] != strudel::kEmptyLabel;
    if (labelled != classified) {
      return StrFormat("cell (%zu, %zu) %s", i / static_cast<size_t>(cols),
                       i % static_cast<size_t>(cols),
                       labelled ? "not classified" : "classified but empty");
    }
  }
  if (confusion != nullptr) {
    for (size_t i = 0; i < predicted.size(); ++i) {
      if (input.cell_labels[i] != strudel::kEmptyLabel) {
        confusion->Add(input.cell_labels[i], predicted[i]);
      }
    }
  }
  return "";
}

}  // namespace pipebench
