//! Exploring and comparing modules through the registry (Figure 3, steps
//! 3–4): search by consumed/produced concepts, inspect data examples, and
//! compare candidate modules' behavior.
//!
//! ```sh
//! cargo run --example module_explorer
//! ```

use data_examples::core::matching::MappingMode;
use data_examples::core::{compare_modules, GenerationConfig};
use data_examples::pool::build_synthetic_pool;
use data_examples::registry::search::{search, substitution_candidates};
use data_examples::registry::{annotate_catalog, SearchQuery};

fn main() {
    let universe = data_examples::universe::build();
    let ontology = &universe.ontology;
    let pool = build_synthetic_pool(ontology, 4, 5);

    // Run the full annotation pipeline: register interfaces + generate data
    // examples for every supplied module.
    let (registry, failures) = annotate_catalog(
        &universe.catalog,
        ontology,
        &pool,
        &GenerationConfig::default(),
    );
    assert!(failures.is_empty());
    println!("registry holds {} annotated modules", registry.len());

    // An experiment designer looks for something that turns a protein
    // sequence into an alignment report (any subconcept: BLAST or FASTA).
    let query = SearchQuery::any()
        .consuming("ProteinSequence")
        .producing("AlignmentReport")
        .available();
    let hits = search(&registry, &query, ontology);
    println!("\nmodules consuming ProteinSequence and producing an alignment report:");
    for (id, entry) in &hits {
        println!("  {id}: {}", entry.descriptor.signature());
    }

    // Inspect one candidate's data examples to understand its behavior.
    let (first_id, first) = hits.first().expect("search hit");
    println!("\ndata examples of {first_id}:");
    for example in first.examples.as_ref().expect("annotated").iter().take(3) {
        println!("  {example}");
    }

    // Compare two providers' homology searches: different algorithms, so
    // their behavior is NOT equivalent (§6, Example 4).
    let a = universe
        .catalog
        .get(&"da:blast_uniprot_ebi".into())
        .unwrap();
    let b = universe
        .catalog
        .get(&"da:blast_uniprot_ddbj".into())
        .unwrap();
    let verdict = compare_modules(
        a.as_ref(),
        b.as_ref(),
        ontology,
        &pool,
        &GenerationConfig::default(),
    )
    .expect("comparable");
    println!("\nblast_uniprot_ebi vs blast_uniprot_ddbj: {verdict}");

    // Whereas two front-ends of the same backend ARE equivalent.
    let a = universe.catalog.get(&"dr:get_gene_record".into()).unwrap();
    let b = universe
        .catalog
        .get(&"dr:get_gene_record_rest".into())
        .unwrap();
    let verdict = compare_modules(
        a.as_ref(),
        b.as_ref(),
        ontology,
        &pool,
        &GenerationConfig::default(),
    )
    .expect("comparable");
    println!("get_gene_record vs get_gene_record_rest: {verdict}");

    // Who could stand in for get_protein_sequence_ebi if it vanished?
    let target = universe
        .catalog
        .descriptor(&"dr:get_protein_sequence_ebi".into())
        .unwrap();
    let candidates = substitution_candidates(&registry, target, ontology, MappingMode::Subsuming);
    println!(
        "\ninterface-compatible substitutes for {} ({} found):",
        target.name,
        candidates.len()
    );
    for id in candidates.iter().take(8) {
        println!("  {id}");
    }
}
