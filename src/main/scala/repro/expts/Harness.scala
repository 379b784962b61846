package repro.expts

import java.lang.management.ManagementFactory
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.ann.AnnConfig
import repro.baselines._
import repro.core._
import repro.data.EmDataset
import repro.embed.{EmbedConfig, Embedder}
import repro.eval.{Metrics, Scores}

/** Outcome of one (method, dataset) cell across Tables IV/V/VI.
  *
  * @param note "" = ran; "\\" = gated out (paper's 7-day-timeout symbol);
  *             "-" = gated out (paper's out-of-memory symbol)
  */
case class RunOutcome(
    method: String,
    dataset: String,
    tuple: Option[Scores],
    pair: Option[Scores],
    seconds: Option[Double],
    peakGB: Option[Double],
    note: String = "",
) {
  def cellF1: String = tuple.map(s => f"${s.f1}%.1f").getOrElse(note)
  def cellPairF1: String = pair.map(s => f"${s.f1}%.1f").getOrElse(note)
  def cellTime: String = seconds.map(Harness.fmtTime).getOrElse(note)
  def cellMem: String = peakGB.map(g => f"$g%.1fG").getOrElse(note)
}

/** Per-dataset tuned hyperparameters (the paper grid-searches m/ε/γ too). */
case class Tuned(m: Double, eps: Double, gamma: Double)

/** Everything a dataset's baseline runs share: embedded items and splits. */
case class BaselinePrep(
    items: DataFrame,          // (id, source, vec, text)
    tables: Seq[DataFrame],    // per-source (id, vec, text)
    gt: DataFrame,             // ground-truth tuples (members)
    gtPairs: DataFrame,        // ground-truth pairs (a, b)
    embedSeconds: Double,
    entities: Long,
    ann: AnnConfig,
)

/** Shared experiment engine for the Table III–VII benches and jobs. */
object Harness {

  // Feasibility gates mirroring the paper's "-" (memory) and "\" (7-day)
  // rows; see DESIGN.md. Values are entity counts, positioned relative to
  // the repro-scale datasets so the paper's feasibility *pattern* holds:
  // MSCD-HAC only reaches Geo; AutoFJ/ALMSER stop after the ~20–33 k
  // datasets; the supervised proxies stop after Music-200.
  val AutoFjGate = 35000L
  val SupervisedGate = 50000L
  val AlmserGate = 35000L
  val HacGate = 10000L

  def fmtTime(s: Double): String =
    if (s < 60) f"$s%.1fs" else if (s < 3600) f"${s / 60}%.1fm" else f"${s / 3600}%.1fh"

  /** Run a thunk, returning (result, seconds, peak heap GB sampled @50 ms). */
  def measure[T](f: => T): (T, Double, Double) = {
    System.gc()
    val mx = ManagementFactory.getMemoryMXBean
    val baseline = mx.getHeapMemoryUsage.getUsed
    @volatile var peak = baseline
    @volatile var stop = false
    val sampler = new Thread(() => {
      while (!stop) {
        val u = mx.getHeapMemoryUsage.getUsed
        if (u > peak) peak = u
        Thread.sleep(50)
      }
    })
    sampler.setDaemon(true)
    sampler.start()
    val t0 = System.nanoTime()
    val r = f
    val secs = (System.nanoTime() - t0) / 1e9
    stop = true
    sampler.join(500)
    (r, secs, peak / 1e9)
  }

  /** ANN backend choice by scale: exact cross-join re-rank below ~10 k
    * entities, blocking-key candidates above (HNSW-style approximation).
    */
  def annFor(entities: Long): AnnConfig =
    if (entities <= 10000) AnnConfig(exact = true) else AnnConfig(exact = false)

  def evalBoth(pred: DataFrame, gt: DataFrame): (Scores, Scores) =
    (Metrics.tupleScores(pred, gt), Metrics.pairScores(pred, gt))

  // ------------------------------------------------------------- MultiEM --

  def multiEmConfig(entities: Long, t: Tuned, useEer: Boolean = true,
                    usePruning: Boolean = true, sampleRatio: Double = 0.2): MultiEmConfig =
    MultiEmConfig(
      embed = EmbedConfig(),
      useEer = useEer,
      gamma = t.gamma,
      sampleRatio = sampleRatio,
      merge = MergeConfig(k = 1, m = t.m, ann = annFor(entities)),
      usePruning = usePruning,
      prune = PruneConfig(eps = t.eps, minPts = 2),
    )

  /** Grid-search (m, ε, γ) against the ground truth, as §IV-A does, reusing
    * the attribute scores and embeddings across the grid so tuning costs a
    * few merges, not a few pipelines.
    */
  def tuneMultiEm(
      ds: EmDataset,
      mGrid: Seq[Double] = Seq(0.45, 0.60),
      epsGrid: Seq[Double] = Seq(0.90, 1.10),
      gammaGrid: Seq[Double] = Seq(0.45),
      sampleRatio: Double = 0.2,
  ): Tuned = {
    val union = ds.tables.reduce(_ unionByName _).localCheckpoint()
    val entities = union.count()
    val ann = annFor(entities)
    val gt = ds.gtTuples.localCheckpoint()
    val sel = AttributeSelection.select(union, "eid", ds.attrs, sampleRatio, gammaGrid.min)
    val attrSets = gammaGrid.map { g =>
      val max = sel.scores.values.max
      val kept = ds.attrs.filter(a => sel.scores(a) >= g * max)
      g -> (if (kept.nonEmpty) kept else ds.attrs.sortBy(a => -sel.scores(a)).take(1))
    }.distinct
    var best = (Double.NegativeInfinity, Tuned(mGrid.head, epsGrid.head, gammaGrid.head))
    for ((g, attrs) <- attrSets.distinctBy(_._2)) {
      val embC = MultiEm.representWithKeys(union, attrs, repro.embed.EmbedConfig(), ann).localCheckpoint()
      val items = ds.tables.map(t =>
        Merging.initItems(t.select(col("eid")).join(embC, Seq("eid"))).localCheckpoint())
      for (m <- mGrid) {
        val merged = Merging.hierarchical(items, MergeConfig(k = 1, m = m, ann = ann)).localCheckpoint()
        for (eps <- epsGrid) {
          val pred = DensityPruning.prune(merged, embC, PruneConfig(eps, 2))
          val f1 = Metrics.tupleScores(pred, gt).f1
          Console.err.println(f"[tune] gamma=$g m=$m eps=$eps -> F1=$f1%.1f")
          if (f1 > best._1) best = (f1, Tuned(m, eps, g))
        }
      }
    }
    best._2
  }

  /** All Table IV/V/VI MultiEM rows for one dataset: full, w/o EER, w/o DP,
    * and the parallel variant. The merge always runs level-parallel (one
    * dataflow per hierarchy level, §III-E), so the full run is the parallel
    * row too.
    */
  def runMultiEmAll(bd: BenchDataset, t: Tuned, sampleRatio: Double = 0.2): Seq[RunOutcome] = {
    val ds = bd.ds
    val entities = ds.df.count()
    val gt = ds.gtTuples.localCheckpoint()
    val tables = ds.tables.map(_.localCheckpoint())

    val (full, secs, mem) = measure {
      MultiEm.run(tables, ds.attrs, multiEmConfig(entities, t, sampleRatio = sampleRatio))
    }
    val (tf, pf) = evalBoth(full.tuples, gt)
    val (tNoDp, pNoDp) = evalBoth(full.tuplesWithoutPruning, gt)

    val noEer = MultiEm.run(tables, ds.attrs, multiEmConfig(entities, t, useEer = false, sampleRatio = sampleRatio))
    val (tNoEer, pNoEer) = evalBoth(noEer.tuples, gt)

    Seq(
      RunOutcome("MultiEM", ds.name, Some(tf), Some(pf), Some(secs), Some(mem)),
      RunOutcome("MultiEM w/o EER", ds.name, Some(tNoEer), Some(pNoEer), None, None),
      RunOutcome("MultiEM w/o DP", ds.name, Some(tNoDp), Some(pNoDp), None, None),
      RunOutcome("MultiEM (parallel)", ds.name, Some(tf), Some(pf), Some(secs), Some(mem)),
    )
  }

  /** Phase-time breakdown of a full run (feeds Fig. 5-style data
    * and the EXPERIMENTS.md notes).
    */
  def phaseBreakdown(bd: BenchDataset, t: Tuned): Map[String, Double] =
    MultiEm.run(bd.ds.tables, bd.ds.attrs, multiEmConfig(bd.ds.df.count(), t)).phaseSeconds

  // ----------------------------------------------------------- baselines --

  /** Embed once (all attributes — baselines have no EER) and split. */
  def prepBaselines(bd: BenchDataset): BaselinePrep = {
    val ds = bd.ds
    val union = ds.df.localCheckpoint()
    val entities = union.count()
    val ((items, gtPairs), secs, _) = measure {
      val ser = Embedder.serialize(union, ds.attrs)
      val cfg = repro.embed.EmbedConfig()
      val feats = Embedder.explodeFeatures(ser, "eid", "text", cfg)
      val weights = Embedder.featureWeights(feats, "eid", entities).localCheckpoint()
      val emb = Embedder.embedWithWeights(ser, "eid", "text", weights, cfg)
      val keys = Embedder.blockingKeys(ser, "eid", "text", weights, cfg)
      val it = ser.select(col("eid") as "id", col("source"), col("text"))
        .join(emb.withColumnRenamed("eid", "id"), Seq("id"))
        .join(keys.withColumnRenamed("eid", "id"), Seq("id"))
        .select("id", "source", "vec", "keys", "text")
        .localCheckpoint()
      (it, Metrics.pairsOf(ds.gtTuples).localCheckpoint())
    }
    val tables = (0 until ds.nSources).map(s =>
      items.filter(col("source") === s).select("id", "vec", "keys", "text").localCheckpoint())
    BaselinePrep(items, tables, ds.gtTuples.localCheckpoint(), gtPairs, secs, entities, annFor(entities))
  }

  private def supervisedThreshold(prep: BaselinePrep, feature: String): Double = {
    val ex = ThresholdLearner.trainExamples(prep.items, prep.gtPairs, feature, ratio = 0.05)
    ThresholdLearner.bestThreshold(ex)
  }

  /** Bulk pairwise pairs for a threshold-style matcher. */
  private def bulkPairwise(prep: BaselinePrep, kind: String, threshold: Double): DataFrame = {
    val candMax = if (kind == "AutoFJ") 0.9 else 1.2
    val cand = Extensions.bulkMutualCandidates(prep.items, k = 1, m = candMax, prep.ann).localCheckpoint()
    kind match {
      case "AutoFJ" =>
        val dists = cand.select("dist").collect().map(_.getDouble(0)).sorted
        val th =
          if (dists.length < 3) candMax / 2
          else dists.sliding(2).map(w => (w(1) - w(0), (w(0) + w(1)) / 2)).maxBy(_._1)._2
        cand.filter(col("dist") <= th).select("a", "b")
      case "PromptEM" =>
        cand
          .join(prep.items.select(col("id") as "a", col("text") as "ta"), Seq("a"))
          .join(prep.items.select(col("id") as "b", col("text") as "tb"), Seq("b"))
          .withColumn("score", ThresholdLearner.blendCol(col("dist"), col("ta"), col("tb")))
          .filter(col("score") <= threshold)
          .select("a", "b")
      case _ => // Ditto and other pure-cosine matchers
        cand.filter(col("dist") <= threshold).select("a", "b")
    }
  }

  /** One two-table-EM baseline × extension cell: PromptEM/Ditto/AutoFJ with
    * pairwise ("pw") or chain ("c") extension, Algorithm 5 for tuples.
    */
  def runTwoTableBaseline(kind: String, ext: String, prep: BaselinePrep, dataset: String): RunOutcome = {
    val label = s"$kind (${ext})"
    val gate = if (kind == "AutoFJ") AutoFjGate else SupervisedGate
    val gateSym = if (kind == "AutoFJ") "-" else "\\"
    if (prep.entities > gate) return RunOutcome(label, dataset, None, None, None, None, gateSym)

    val (pred, secs, mem) = measure {
      val pairs = ext match {
        case "pw" =>
          val th = kind match {
            case "Ditto"    => supervisedThreshold(prep, "cos")
            case "PromptEM" => supervisedThreshold(prep, "cos+jac")
            case _          => 0.0
          }
          bulkPairwise(prep, kind, th)
        case "c" =>
          val matcher: PairMatcher = kind match {
            case "Ditto"    => SupervisedMatcher("Ditto", supervisedThreshold(prep, "cos"), "cos", ann = prep.ann)
            case "PromptEM" => SupervisedMatcher("PromptEM", supervisedThreshold(prep, "cos+jac"), "cos+jac", ann = prep.ann)
            case _          => AutoFJLite(ann = prep.ann)
          }
          Extensions.chain(prep.tables, matcher)
      }
      Metrics.pairsToTuples(pairs).localCheckpoint()
    }
    val (ts, ps) = evalBoth(pred, prep.gt)
    RunOutcome(label, dataset, Some(ts), Some(ps), Some(secs + prep.embedSeconds), Some(mem))
  }

  /** ALMSER-GB proxy cell. */
  def runAlmser(prep: BaselinePrep, dataset: String): RunOutcome = {
    if (prep.entities > AlmserGate)
      return RunOutcome("ALMSER-GB", dataset, None, None, None, None, "\\")
    val (pred, secs, mem) = measure {
      val th = supervisedThreshold(prep, "cos")
      val pairs = bulkPairwise(prep, "Ditto", th) // all-pairs supervised matcher
      Metrics.pairsToTuples(pairs).localCheckpoint()
    }
    val (ts, ps) = evalBoth(pred, prep.gt)
    RunOutcome("ALMSER-GB", dataset, Some(ts), Some(ps), Some(secs + prep.embedSeconds), Some(mem))
  }

  /** MSCD-HAC cell (driver-local agglomerative clustering, gated at 10 k). */
  def runHac(prep: BaselinePrep, dataset: String, threshold: Double = 0.9): RunOutcome = {
    if (prep.entities > HacGate)
      return RunOutcome("MSCD-HAC", dataset, None, None, None, None, "\\")
    val spark = prep.items.sparkSession
    val (pred, secs, mem) = measure {
      MscdHac.run(spark, prep.items, threshold).localCheckpoint()
    }
    val (ts, ps) = evalBoth(pred, prep.gt)
    RunOutcome("MSCD-HAC", dataset, Some(ts), Some(ps), Some(secs + prep.embedSeconds), Some(mem))
  }

  /** The full baseline column for one dataset (Tables IV/V/VI rows). */
  def runAllBaselines(bd: BenchDataset): Seq[RunOutcome] = {
    val prep = prepBaselines(bd)
    val name = bd.ds.name
    def logged(o: => RunOutcome): RunOutcome = {
      val r = o
      Console.err.println(s"[baseline] ${r.method} on ${r.dataset}: F1=${r.cellF1} t=${r.cellTime}")
      r
    }
    Seq(
      logged(runTwoTableBaseline("PromptEM", "pw", prep, name)),
      logged(runTwoTableBaseline("Ditto", "pw", prep, name)),
      logged(runTwoTableBaseline("AutoFJ", "pw", prep, name)),
      logged(runTwoTableBaseline("PromptEM", "c", prep, name)),
      logged(runTwoTableBaseline("Ditto", "c", prep, name)),
      logged(runTwoTableBaseline("AutoFJ", "c", prep, name)),
      logged(runAlmser(prep, name)),
      logged(runHac(prep, name)),
    )
  }
}
