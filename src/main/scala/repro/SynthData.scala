package repro

import org.apache.spark.sql.SparkSession

/** Entry points for the multi-source entity-matching datasets (MultiEM
  * reproduction). These delegate to repro.data.EmDataGen, which mirrors the
  * schemas, source counts and noise models of the paper's six benchmarks
  * (Table III).
  */
object SynthData {

  /** Geo-like dataset: 4 sources, (name, longitude, latitude). */
  def emGeo(spark: SparkSession, scale: Double = 1.0, seed: Long = 11L): repro.data.EmDataset =
    repro.data.EmDataGen.geo(spark, scale, seed)

  /** Music-N family: 5 sources, 8 attributes; nTuples=5000 is Music-20. */
  def emMusic(spark: SparkSession, nTuples: Long = 5000L, seed: Long = 22L,
              name: String = "Music-20"): repro.data.EmDataset =
    repro.data.EmDataGen.music(spark, nTuples, seed, name)

  /** Person-like dataset: 5 sources, (givenname, surname, suburb, postcode). */
  def emPerson(spark: SparkSession, scale: Double = 1.0, seed: Long = 33L): repro.data.EmDataset =
    repro.data.EmDataGen.person(spark, scale, seed)

  /** Shopee-like dataset: 20 sources, single confusable title attribute. */
  def emShopee(spark: SparkSession, scale: Double = 1.0, seed: Long = 44L): repro.data.EmDataset =
    repro.data.EmDataGen.shopee(spark, scale, seed)
}
