package repro.core

import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestUtil}
import repro.ann.AnnConfig
import repro.data.EmDataGen
import repro.eval.Metrics

/** End-to-end pipeline tests on a small generated Geo dataset. */
class MultiEmSpec extends SparkSpec {

  private lazy val ds = EmDataGen.geo(spark, scale = 0.15, seed = 101L)
  private lazy val gt = ds.gtTuples.localCheckpoint()

  private def cfg(m: Double = 0.45, eps: Double = 0.9, useEer: Boolean = true,
                  usePruning: Boolean = true) =
    MultiEmConfig(
      useEer = useEer,
      gamma = 0.5,
      sampleRatio = 1.0,
      merge = MergeConfig(k = 1, m = m, ann = AnnConfig(exact = true)),
      usePruning = usePruning,
      prune = PruneConfig(eps, 2),
    )

  private lazy val result = MultiEm.run(ds.tables, ds.attrs, cfg())

  test("pipeline produces non-empty tuple predictions") {
    assert(result.tuples.count() > 0)
  }

  test("predicted tuples have at least two members each") {
    assert(result.tuples.filter(size(col("members")) < 2).count() == 0)
  }

  test("no entity appears in two predicted tuples") {
    val exploded = result.tuples.select(explode(col("members")) as "eid")
    assert(exploded.count() == exploded.distinct().count())
  }

  test("predicted members are real entity ids") {
    val exploded = result.tuples.select(explode(col("members")) as "eid")
    val unknown = exploded.join(ds.df.select("eid"), Seq("eid"), "left_anti")
    assert(unknown.count() == 0)
  }

  test("pipeline beats a trivial all-singletons baseline on tuple F1") {
    val s = Metrics.tupleScores(result.tuples, gt)
    assert(s.f1 > 20.0, s"end-to-end tuple F1 unexpectedly low: $s")
  }

  test("pair-F1 is at least as high as tuple F1 (looser metric, Example 2)") {
    val t = Metrics.tupleScores(result.tuples, gt)
    val p = Metrics.pairScores(result.tuples, gt)
    assert(p.f1 >= t.f1 - 1e-9, s"tuple=$t pair=$p")
  }

  test("EER selects the name attribute on Geo (Table VII)") {
    assert(result.selectedAttrs == Seq("name"))
  }

  test("phase timings cover all four phases") {
    assert(result.phaseSeconds.keySet == Set("selection", "representation", "merging", "pruning"))
    assert(result.phaseSeconds.values.forall(_ >= 0.0))
  }

  test("w/o DP ablation returns the unpruned merged tuples") {
    val noDp = result.tuplesWithoutPruning
    // pruning only removes entities, so unpruned pair set ⊇ pruned pair set
    val prunedPairs = Metrics.pairsOf(result.tuples)
    val rawPairs = Metrics.pairsOf(noDp)
    assert(prunedPairs.join(rawPairs, Seq("a", "b"), "left_anti").count() == 0)
  }

  test("w/o EER run uses all attributes") {
    val noEer = MultiEm.run(ds.tables, ds.attrs, cfg(useEer = false))
    assert(noEer.selectedAttrs == ds.attrs)
  }

  test("exact mode gives identical tuples under 1, 7 and 64 shuffle partitions") {
    val key = "spark.sql.shuffle.partitions"
    val saved = spark.conf.get(key)
    val expected = TestUtil.tupleSet(result.tuples)
    try {
      for (n <- Seq(1, 7, 64)) {
        spark.conf.set(key, n.toLong)
        val out = MultiEm.run(ds.tables, ds.attrs, cfg())
        assert(TestUtil.tupleSet(out.tuples) == expected, s"$n partitions")
      }
    } finally spark.conf.set(key, saved)
  }

  test("pruning cannot increase the tuple count") {
    assert(result.tuples.count() <= result.tuplesWithoutPruning.count())
  }
}
