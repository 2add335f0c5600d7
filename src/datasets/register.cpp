#include "datasets/register.hpp"

#include "datasets/erdos.hpp"
#include "datasets/iot/riotbench.hpp"
#include "datasets/random_graphs.hpp"
#include "datasets/registry.hpp"
#include "datasets/workflows/blast.hpp"
#include "datasets/workflows/bwa.hpp"
#include "datasets/workflows/cycles.hpp"
#include "datasets/workflows/epigenomics.hpp"
#include "datasets/workflows/genome.hpp"
#include "datasets/workflows/montage.hpp"
#include "datasets/workflows/seismology.hpp"
#include "datasets/workflows/soykb.hpp"
#include "datasets/workflows/srasearch.hpp"
#include "datasets/wrappers.hpp"

namespace saga::datasets {

void register_builtin_datasets(DatasetRegistry& registry) {
  // Table II order (the `table2` roster)...
  register_random_graph_datasets(registry);
  workflows::register_blast_dataset(registry);
  workflows::register_bwa_dataset(registry);
  workflows::register_cycles_dataset(registry);
  workflows::register_epigenomics_dataset(registry);
  workflows::register_genome_dataset(registry);
  workflows::register_montage_dataset(registry);
  workflows::register_seismology_dataset(registry);
  workflows::register_soykb_dataset(registry);
  workflows::register_srasearch_dataset(registry);
  iot::register_riotbench_datasets(registry);
  // ...then the extensions.
  register_erdos_dataset(registry);
  register_wrapper_datasets(registry);
}

}  // namespace saga::datasets
